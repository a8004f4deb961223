"""Tests for the resilience subsystem: fault injection, worker crash
recovery, spill hardening, deadlines, and the typed error CLI.  The
parallel engine's own recovery mechanics (stalls, segment cleanup, the
all-workers-dead inline drain) are tested in ``test_shm.py``."""

import math
import os
import pickle
import random
import sys

import pytest

from repro import (
    Deadline,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    JoinConfig,
    JoinDeadlineExceeded,
    JoinRunner,
    Rect,
    ReproError,
    RTree,
    SpillCorruptionError,
    SpillError,
    parallel_kdj,
)
from repro.parallel import shm as parallel_shm
from repro.queues.main_queue import MainQueue
from repro.resilience import (
    NULL_DEADLINE,
    InjectedWorkerCrash,
    StaleStreamError,
    trip_worker_faults,
)
from repro.storage.disk import SimulatedDisk

from tests.conftest import assert_distances_close


def random_points(n: int, seed: int, span: float = 1000.0) -> list[tuple[Rect, int]]:
    rng = random.Random(seed)
    return [
        (Rect.from_point(rng.uniform(0, span), rng.uniform(0, span)), i)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def point_trees():
    return (
        RTree.bulk_load(random_points(400, seed=31), max_entries=16),
        RTree.bulk_load(random_points(300, seed=32), max_entries=16),
    )


@pytest.fixture(scope="module")
def baseline_distances(point_trees):
    tree_r, tree_s = point_trees
    return JoinRunner(tree_r, tree_s, JoinConfig()).kdj(30, "amkdj").distances


# ----------------------------------------------------------------------
# FaultPlan: parsing and firing decisions
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_sites_and_options(self):
        plan = FaultPlan.parse("worker_crash:@1;3,spill_write:0.5,seed=7,stall_s=0.4")
        assert plan.seed == 7
        assert plan.stall_s == 0.4
        assert plan.specs == (
            FaultSpec("worker_crash", at=(1, 3)),
            FaultSpec("spill_write", probability=0.5),
        )

    @pytest.mark.parametrize(
        "spec",
        ["bogus_site", "worker_crash:1.5", "worker_crash:@x", "seed=ab", "", "seed=3"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_spec_error_is_typed_and_a_value_error(self):
        error = FaultSpecError("x")
        assert isinstance(error, ReproError)
        assert isinstance(error, ValueError)
        assert error.exit_code == 64

    def test_at_index_restriction(self):
        plan = FaultPlan.parse("worker_crash:@2")
        assert not plan.should_fire("worker_crash", 0)
        assert not plan.should_fire("worker_crash", 1)
        assert plan.should_fire("worker_crash", 2)

    def test_counter_advances_when_index_omitted(self):
        plan = FaultPlan.parse("spill_write:@1")
        assert [plan.should_fire("spill_write") for _ in range(3)] == [
            False,
            True,
            False,
        ]

    def test_probability_is_deterministic_in_seed(self):
        decide = lambda seed: [
            FaultPlan.parse(f"worker_crash:0.5,seed={seed}").should_fire(
                "worker_crash", i
            )
            for i in range(64)
        ]
        assert decide(3) == decide(3)
        assert any(decide(3))
        assert not all(decide(3))
        assert decide(3) != decide(4)

    def test_spill_write_raises_enospc(self):
        plan = FaultPlan.parse("spill_write")
        with pytest.raises(OSError) as info:
            plan.maybe_fail_spill_write()
        import errno

        assert info.value.errno == errno.ENOSPC

    def test_corrupt_alternates_flip_and_truncate(self):
        plan = FaultPlan.parse("spill_read")
        blob = bytes(range(32))
        flipped = plan.maybe_corrupt(blob)
        assert len(flipped) == len(blob) and flipped != blob
        truncated = plan.maybe_corrupt(blob)
        assert len(truncated) < len(blob)

    def test_trip_worker_crash_raises_in_parent(self):
        plan = FaultPlan.parse("worker_crash:@0")
        with pytest.raises(InjectedWorkerCrash):
            trip_worker_faults(plan, 0)
        trip_worker_faults(plan, 1)  # other workers untouched

    def test_kill_degrades_to_crash_outside_child_process(self):
        # In the parent process a hard exit would kill the test run;
        # the harness degrades it to the catchable crash.
        with pytest.raises(InjectedWorkerCrash):
            trip_worker_faults(FaultPlan.parse("worker_kill"), 0)

    def test_plan_pickles_with_independent_counters(self):
        plan = FaultPlan.parse("spill_write:@0")
        assert plan.should_fire("spill_write") is True
        copy = pickle.loads(pickle.dumps(plan))
        # The copy restarts its occurrence count.
        assert copy.should_fire("spill_write") is True


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class TestDeadline:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_null_deadline_is_inert(self):
        assert NULL_DEADLINE.armed is False
        NULL_DEADLINE.tick()
        NULL_DEADLINE.check()
        assert not NULL_DEADLINE.expired()
        assert NULL_DEADLINE.remaining() == math.inf

    def test_expiry_raises_with_budget_and_elapsed(self):
        deadline = Deadline(1e-9)
        with pytest.raises(JoinDeadlineExceeded) as info:
            deadline.check()
        assert info.value.budget_s == 1e-9
        assert info.value.elapsed_s >= 0.0
        assert info.value.exit_code == 75

    def test_first_tick_checks_the_clock(self):
        with pytest.raises(JoinDeadlineExceeded):
            Deadline(1e-9).tick()

    def test_generous_budget_survives_many_ticks(self):
        deadline = Deadline(60.0)
        for _ in range(1000):
            deadline.tick()
        assert deadline.remaining() > 0.0

    @pytest.mark.parametrize("algorithm", ["hs", "bkdj", "amkdj", "sjsort", "nlj"])
    def test_kdj_engines_enforce_deadline(self, point_trees, algorithm):
        runner = JoinRunner(*point_trees, JoinConfig(deadline_s=1e-9))
        with pytest.raises(JoinDeadlineExceeded):
            runner.kdj(30, algorithm)

    def test_incremental_join_enforces_deadline(self, point_trees):
        runner = JoinRunner(*point_trees, JoinConfig(deadline_s=1e-9))
        with runner.idj("amidj") as stream:
            with pytest.raises(JoinDeadlineExceeded):
                stream.next_batch(10)

    def test_deadline_exceeded_pickles(self):
        error = pickle.loads(pickle.dumps(JoinDeadlineExceeded(1.5, 2.5)))
        assert (error.budget_s, error.elapsed_s) == (1.5, 2.5)


# ----------------------------------------------------------------------
# Spill hardening
# ----------------------------------------------------------------------


SPILL_QUEUE = dict(memory_bytes=48 * 8, rho=0.5)


class TestSpillHardening:
    def test_write_failure_falls_back_to_memory(self, tmp_path):
        """ENOSPC on every spill write: the queue keeps entries in memory
        and still drains in exact order, with the failure counted."""
        queue = MainQueue(
            SimulatedDisk(),
            spill_dir=tmp_path,
            faults=FaultPlan.parse("spill_write"),
            **SPILL_QUEUE,
        )
        values = [random.Random(3).uniform(0, 300) for _ in range(2000)]
        for v in values:
            queue.insert(v, None)
        assert queue.stats.spill_write_failures >= 1
        assert not list(tmp_path.glob("*.pile"))
        assert [queue.pop()[0] for _ in range(2000)] == sorted(values)

    def test_write_failure_mid_run_keeps_earlier_segments(self, tmp_path):
        """Only the third write fails: earlier spilled batches stay valid
        and the drain is still exact."""
        queue = MainQueue(
            SimulatedDisk(),
            spill_dir=tmp_path,
            faults=FaultPlan.parse("spill_write:@2"),
            **SPILL_QUEUE,
        )
        values = [random.Random(4).uniform(0, 300) for _ in range(3000)]
        for v in values:
            queue.insert(v, None)
        assert [queue.pop()[0] for _ in range(3000)] == sorted(values)
        assert not list(tmp_path.glob("*.pile"))

    def test_join_with_write_faults_matches_clean_run(self, tmp_path, point_trees):
        clean = JoinRunner(
            *point_trees, JoinConfig(queue_memory=1024)
        ).kdj(300, "bkdj")
        faulted = JoinRunner(
            *point_trees,
            JoinConfig(
                queue_memory=1024,
                spill_dir=tmp_path,
                fault_plan=FaultPlan.parse("spill_write"),
            ),
        ).kdj(300, "bkdj")
        assert_distances_close(faulted.distances, clean.distances)
        assert faulted.stats.extra.get("spill_write_failures", 0) >= 1
        assert not list(tmp_path.glob("*.pile"))

    def test_read_corruption_raises_typed_error(self, tmp_path, point_trees):
        config = JoinConfig(
            queue_memory=1024,
            spill_dir=tmp_path,
            fault_plan=FaultPlan.parse("spill_read"),
        )
        with pytest.raises(SpillCorruptionError) as info:
            JoinRunner(*point_trees, config).kdj(300, "bkdj")
        assert isinstance(info.value, SpillError)
        assert isinstance(info.value, ReproError)
        assert info.value.exit_code == 76
        # Satellite: the aborted join must not leak spill files.
        assert not list(tmp_path.glob("*.pile"))

    def test_spill_dir_empty_after_successful_join(self, tmp_path, point_trees):
        JoinRunner(
            *point_trees, JoinConfig(queue_memory=1024, spill_dir=tmp_path)
        ).kdj(300, "bkdj")
        assert not list(tmp_path.glob("*.pile"))

    def test_truncated_segment_detected_on_read(self, tmp_path):
        """Truncating a spill file on disk (mid-record) surfaces as
        SpillCorruptionError, not a silent short drain."""
        queue = MainQueue(SimulatedDisk(), spill_dir=tmp_path, **SPILL_QUEUE)
        for v in range(4000):
            queue.insert(float(v % 613), None)
        piles = list(tmp_path.glob("*.pile"))
        assert piles
        victim = max(piles, key=lambda p: p.stat().st_size)
        os.truncate(victim, victim.stat().st_size // 2)
        with pytest.raises(SpillCorruptionError):
            while queue:
                queue.pop()
        queue.close()
        assert not list(tmp_path.glob("*.pile"))

    def test_flipped_byte_detected_by_checksum(self, tmp_path):
        queue = MainQueue(SimulatedDisk(), spill_dir=tmp_path, **SPILL_QUEUE)
        for v in range(4000):
            queue.insert(float(v % 613), None)
        victim = max(tmp_path.glob("*.pile"), key=lambda p: p.stat().st_size)
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(SpillCorruptionError):
            while queue:
                queue.pop()
        queue.close()
        assert not list(tmp_path.glob("*.pile"))


# ----------------------------------------------------------------------
# Parallel engine fault tolerance
# ----------------------------------------------------------------------


class TestParallelResilience:
    def test_process_mode_regression(self, point_trees, baseline_distances):
        """mode='shm-process' works with the platform-selected start
        method (fork is not hardcoded)."""
        config = JoinConfig(parallel=2, parallel_mode="shm-process")
        result = parallel_kdj(*point_trees, 30, config)
        assert_distances_close(result.distances, baseline_distances)
        assert result.stats.extra["parallel_workers"] == 2

    def test_thread_crash_recovers_identically(self, point_trees, baseline_distances):
        config = JoinConfig(
            parallel=2,
            parallel_mode="shm-thread",
            fault_plan=FaultPlan.parse("worker_crash:@1"),
        )
        result = parallel_kdj(*point_trees, 30, config)
        assert_distances_close(result.distances, baseline_distances)
        extra = result.stats.extra
        assert extra["resilience_worker_failures"] >= 1
        # The surviving worker takes the crashed one's share: the parent
        # never has to drain a stage inline.
        assert "resilience_worker_fallbacks" not in extra

    def test_process_kill_rebuilds_pool(self, point_trees, baseline_distances):
        """A hard worker exit takes one process down; the survivor
        finishes the stage, every later stage starts on a fresh pool (so
        the plan kills a new worker 0 there too), and the answer is
        still exact."""
        config = JoinConfig(
            parallel=2,
            parallel_mode="shm-process",
            fault_plan=FaultPlan.parse("worker_kill:@0"),
        )
        result = parallel_kdj(*point_trees, 30, config)
        assert_distances_close(result.distances, baseline_distances)
        extra = result.stats.extra
        assert extra["parallel_stages"] >= 2
        assert extra["resilience_worker_failures"] == extra["parallel_stages"]
        assert "resilience_worker_fallbacks" not in extra
        assert parallel_shm.active_segments() == []

    def test_parallel_deadline_enforced(self, point_trees):
        for mode in ("shm-serial", "shm-thread", "shm-process"):
            config = JoinConfig(parallel=2, parallel_mode=mode, deadline_s=1e-9)
            with pytest.raises(JoinDeadlineExceeded):
                parallel_kdj(*point_trees, 30, config)
        assert parallel_shm.active_segments() == []


class TestStartMethod:
    def test_linux_prefers_fork_when_available(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(sys, "platform", "linux")
        expected = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert parallel_shm._mp_context().get_start_method() == expected

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_non_linux_uses_spawn(self, monkeypatch, platform):
        monkeypatch.setattr(sys, "platform", platform)
        assert parallel_shm._mp_context().get_start_method() == "spawn"


# ----------------------------------------------------------------------
# CLI: typed errors become clean exit codes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_trees(tmp_path_factory):
    out = tmp_path_factory.mktemp("indexes")
    tree_r = RTree.bulk_load(random_points(150, seed=41), max_entries=8)
    tree_s = RTree.bulk_load(random_points(120, seed=42), max_entries=8)
    tree_r.save(out / "r.rt")
    tree_s.save(out / "s.rt")
    return str(out / "r.rt"), str(out / "s.rt")


class TestCli:
    def run(self, *argv):
        from repro.__main__ import main

        return main(list(argv))

    def test_join_succeeds(self, saved_trees, capsys):
        assert self.run("join", *saved_trees, "-k", "5") == 0
        assert "distance" in capsys.readouterr().out

    def test_bad_fault_spec_exits_64(self, saved_trees, capsys):
        code = self.run(
            "join", *saved_trees, "-k", "5", "--inject-faults", "bogus_site"
        )
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "bogus_site" in err

    def test_deadline_exits_75(self, saved_trees, capsys):
        code = self.run("join", *saved_trees, "-k", "5", "--deadline", "1e-9")
        assert code == 75
        assert "deadline" in capsys.readouterr().err

    def test_spill_corruption_exits_76(self, saved_trees, tmp_path, capsys):
        code = self.run(
            "join", *saved_trees, "-k", "500", "-a", "bkdj",
            "--queue-kb", "1", "--spill-dir", str(tmp_path),
            "--inject-faults", "spill_read",
        )
        assert code == 76
        assert "spill segment" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.pile"))

    def test_exit_codes_are_distinct(self):
        codes = {
            cls.exit_code
            for cls in (
                ReproError,
                FaultSpecError,
                SpillError,
                SpillCorruptionError,
                JoinDeadlineExceeded,
                StaleStreamError,
            )
        }
        assert len(codes) == 6
        assert all(code != 0 for code in codes)
