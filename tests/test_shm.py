"""The parallel engine: serialization, identity, its two runtimes, and
crash recovery.

Identity is the load-bearing property: both runtimes, at one worker as
at two, must return the result set the sequential engine produces (and
agree tie-aware with the ``nlj`` oracle on adversarial inputs), with or
without injected faults.  The engine picks the runtime itself: forked
worker processes at two workers or more on Linux, the calling thread
otherwise.  ``JoinConfig.parallel_mode`` selects nothing; the tests that
take a ``mode`` pass each accepted value to show that.  The
serialization tests pin the node blocks the engine reads; the fault
tests additionally assert that no worker process outlives a run.
"""

import hashlib
import math
import multiprocessing
import random
import sys

import pytest

from repro.core.api import JoinConfig, JoinRunner
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.kernels.arena import TreeArena
from repro.parallel import runtime
from repro.parallel.engine import parallel_kdj
from repro.resilience.faults import FaultPlan
from repro.rtree.tree import RTree

from tests.conftest import BACKENDS, assert_blocks_describe, block_rects


def _points(n, seed, span=1000.0):
    rng = random.Random(seed)
    return [
        (Rect.from_point(rng.uniform(0, span), rng.uniform(0, span)), i)
        for i in range(n)
    ]


def _rects(n, seed):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.uniform(0, 900), rng.uniform(0, 900)
        # Quantized corners manufacture exact distance ties.
        w, h = rng.randrange(0, 5) * 2.5, rng.randrange(0, 5) * 2.5
        items.append((Rect(x, y, x + w, y + h), i))
    return items


def _stream(result):
    return sorted((p.distance, p.ref_r, p.ref_s) for p in result.results)


def _runtime(workers):
    """The runtime the engine picks on this host at ``workers``."""
    forks = workers >= 2 and runtime._fork_context() is not None
    return "process" if forks else "inline"


def _no_live_workers():
    """Every worker a run forked has been joined."""
    return multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def point_trees():
    return (
        RTree.bulk_load(_points(1500, 11)),
        RTree.bulk_load(_points(1500, 22)),
    )


@pytest.fixture(scope="module")
def sequential(point_trees):
    tree_r, tree_s = point_trees
    return JoinRunner(tree_r, tree_s, JoinConfig()).kdj(400, "amkdj")


def _walk(blocks, root):
    """Pages reachable from ``root``, parents before children."""
    pages, pending = [], [root]
    while pending:
        page = pending.pop()
        pages.append(page)
        if blocks[page].level:
            pending.extend(blocks[page].refs)
    return pages


def _read_arena(arena, outbox=None):
    """Both trees' entry refs and R's root MBR, as one worker sees them."""
    seen = (
        {page: tuple(block.refs) for page, block in arena.blocks_r.items()},
        {page: tuple(block.refs) for page, block in arena.blocks_s.items()},
        arena.blocks_r[arena.root_r].mbr,
    )
    if outbox is not None:
        outbox.put(seen)
    return seen


class TestSerialization:
    def test_root_block_covers_the_tree(self):
        tree = RTree.bulk_load(_points(300, 5))
        arena = TreeArena(tree, tree)
        assert arena.root_r == tree.root_id
        root = arena.blocks_r[arena.root_r]
        # The root's subtree count covers every object.
        assert root.count == tree.size
        assert root.mbr == tree.bounds()
        # Level decreases root-to-leaf; leaves are level 0.
        assert root.level == tree.height - 1

    def test_blocks_cover_live_pages_only(self):
        tree = RTree.bulk_load(_points(400, 6), max_entries=8)
        blocks = TreeArena(tree, tree).blocks_r
        live = set(tree.store.page_ids())
        assert blocks.keys() == live
        # Page 0 is the bootstrap root a bulk load frees: a dangling id
        # fails loudly.
        assert 0 not in live
        with pytest.raises(KeyError):
            blocks[0]
        for page in live:
            assert len(block_rects(blocks[page])) == len(blocks[page].refs)
            assert len(blocks[page].refs) == len(tree._get_node(page))

    def test_children_follow_parents(self):
        tree = RTree.bulk_load(_points(400, 6))
        arena = TreeArena(tree, tree)
        blocks = arena.blocks_r
        pages = _walk(blocks, arena.root_r)
        assert sorted(pages) == sorted(tree.store.page_ids())
        for page in pages:
            block = blocks[page]
            if block.level == 0:
                continue
            for rect, child in zip(block_rects(block), block.refs):
                assert blocks[child].level == block.level - 1
                # A directory entry's MBR is its child block's MBR.
                assert rect == blocks[child].mbr

    def test_leaf_entries_carry_object_ids(self):
        items = _points(64, 7)
        tree = RTree.bulk_load(items)
        arena = TreeArena(tree, tree)
        seen = []
        for page in _walk(arena.blocks_r, arena.root_r):
            if arena.blocks_r[page].level == 0:
                seen.extend(arena.blocks_r[page].refs)
        assert sorted(seen) == sorted(oid for _, oid in items)

    def test_forked_worker_reads_the_parent_arena(self):
        # A forked child reads the parent's blocks in place: the arena
        # reaches it as a Process argument and is never pickled.
        ctx = runtime._fork_context()
        if ctx is None:
            pytest.skip("the engine forks only on Linux")
        tree_r = RTree.bulk_load(_points(200, 8))
        tree_s = RTree.bulk_load(_points(200, 9))
        arena = TreeArena(tree_r, tree_s)
        outbox = ctx.Queue()
        proc = ctx.Process(target=_read_arena, args=(arena, outbox))
        proc.start()
        seen = outbox.get(timeout=30)
        proc.join(timeout=30)
        assert seen == _read_arena(arena)
        assert proc.exitcode == 0
        assert seen[2] == tree_r.bounds()

    def test_mindist_contract_matches_scalar(self):
        # The kernels' shortcut arithmetic must reproduce min_distance
        # bit-for-bit over the node blocks — this is what makes the
        # parallel stream byte-identical.
        from repro.kernels import resolve_backend

        tree_r = RTree.bulk_load(_rects(120, 13))
        tree_s = RTree.bulk_load(_rects(120, 14))
        arena = TreeArena(tree_r, tree_s)
        kern = resolve_backend()
        rect = block_rects(arena.blocks_r[arena.root_r])[0]
        root_s = arena.blocks_s[arena.root_s]
        hits = kern.block_within(rect, root_s.rects, math.inf)
        assert hits, "unbounded query must hit every entry"
        rects_s = block_rects(root_s)
        for j, dist in hits:
            assert dist == min_distance(rect, rects_s[j])


#: Every value ``JoinConfig.parallel_mode`` accepts; none selects a runtime.
MODES = ["shm-serial", "shm-process"]

#: sha256 of the results and ``JoinStats`` row (``wall_time`` aside) of
#: ``parallel_kdj`` at ``JoinConfig(parallel=1, parallel_mode="shm-serial")``
#: before the engine picked its own runtime, on either kernels backend.
INLINE_DIGESTS = {
    "points": "900c605657658fa9e8092fd6777668dcf60cd55dcd50d483d9386d6caec74505",
    "tied-rects": "a74421cbffc99cb3f8cfb80d8029ed721ae8189bca6f3b7eaaff49c48fe5e28a",
    "clustered": "201f4e91065d2d0e0c182bc0de4077ee6ea940f6b53c372bd3d80e31ce3bc17c",
}


def _digest(result):
    row = result.stats.as_row()
    del row["wall_time"]
    text = repr(([tuple(p) for p in result.results], sorted(row.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_case(name):
    """``(tree_r, tree_s, k)`` of one :data:`INLINE_DIGESTS` case."""
    if name == "points":
        return RTree.bulk_load(_points(1500, 11)), RTree.bulk_load(_points(1500, 22)), 400
    if name == "tied-rects":
        return RTree.bulk_load(_rects(600, 31)), RTree.bulk_load(_rects(600, 32)), 250
    shifted = [
        (Rect.from_point(r.xmin + 500.0, r.ymin + 500.0), i)
        for r, i in _points(400, 42, span=10.0)
    ]
    return RTree.bulk_load(_points(400, 41, span=10.0)), RTree.bulk_load(shifted), 300


@pytest.fixture
def no_process(monkeypatch):
    """Make starting any process fail the test."""

    def refuse(self):
        raise AssertionError("the engine started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


class TestRuntime:
    """The engine picks its runtime from the worker count and platform."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", list(INLINE_DIGESTS))
    def test_one_worker_drains_inline_bit_for_bit(
        self, case, backend, kernels_backend, no_process
    ):
        tree_r, tree_s, k = _digest_case(case)
        with kernels_backend(backend):
            result = parallel_kdj(tree_r, tree_s, k, JoinConfig(parallel=1))
        assert result.stats.extra["parallel_mode"] == "inline"
        assert _digest(result) == INLINE_DIGESTS[case]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_linux_forks_at_two_workers_or_more(self, point_trees, sequential, workers):
        if runtime._fork_context() is None:
            pytest.skip("the engine forks only on Linux")
        tree_r, tree_s = point_trees
        result = parallel_kdj(tree_r, tree_s, 400, JoinConfig(parallel=workers))
        assert _stream(result) == _stream(sequential)
        extra = result.stats.extra
        assert extra["parallel_mode"] == "process"
        assert extra["obs.shm.ready"] == workers
        assert _no_live_workers()

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_without_fork_drains_inline(
        self, point_trees, sequential, monkeypatch, no_process, platform
    ):
        monkeypatch.setattr(sys, "platform", platform)
        assert runtime._fork_context() is None
        tree_r, tree_s = point_trees
        result = parallel_kdj(tree_r, tree_s, 400, JoinConfig(parallel=2))
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["parallel_mode"] == "inline"
        assert result.stats.extra["parallel_workers"] == 2

    def test_benchmark_config_still_builds_and_forks(self, point_trees, sequential):
        # The benchmark harness builds this config at import.
        config = JoinConfig(parallel=2, parallel_mode="shm-process")
        result = parallel_kdj(*point_trees, 400, config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["parallel_mode"] == _runtime(2)


class TestIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_modes_identical_to_sequential(self, point_trees, sequential, mode):
        tree_r, tree_s = point_trees
        for workers in (1, 2):
            config = JoinConfig(parallel=workers, parallel_mode=mode)
            result = parallel_kdj(tree_r, tree_s, 400, config=config)
            assert _stream(result) == _stream(sequential)
            assert result.stats.extra["parallel_workers"] == workers
            assert result.stats.extra["parallel_mode"] == _runtime(workers)
            assert result.stats.extra["parallel_stages"] >= 1

    def test_rect_data_with_distance_ties(self):
        tree_r = RTree.bulk_load(_rects(600, 31))
        tree_s = RTree.bulk_load(_rects(600, 32))
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(250, "amkdj")
        config = JoinConfig(parallel=2)
        result = parallel_kdj(tree_r, tree_s, 250, config=config)
        assert _stream(result) == _stream(seq)

    def test_python_kernels_identical(self, point_trees, sequential, kernels_backend):
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=1)
        rows = set()
        for backend in BACKENDS:
            with kernels_backend(backend):
                result = parallel_kdj(tree_r, tree_s, 400, config=config)
            assert _stream(result) == _stream(sequential), backend
            row = result.stats.as_row()
            del row["wall_time"]
            rows.add(repr(sorted(row.items())))
        assert len(rows) == 1

    def test_exact_algorithms_run_sequentially(self, point_trees, no_process):
        # Only AM-KDJ has a parallel engine: an exact baseline asked for
        # workers runs the sequential code, the engine never starts.
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=2)
        result = JoinRunner(tree_r, tree_s, config).kdj(50, "hs")
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(50, "hs")
        assert _stream(result) == _stream(seq)
        assert "obs.shm.tasks" not in result.stats.extra
        assert "parallel_workers" not in result.stats.extra

    def test_widening_reruns_stage_on_clustered_data(self):
        # Two tight clusters far apart: the uniform-density eDmax
        # estimate undershoots badly, forcing at least one widening.
        tree_r, tree_s, k = _digest_case("clustered")
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(k, "amkdj")
        config = JoinConfig(parallel=1)
        result = parallel_kdj(tree_r, tree_s, k, config=config)
        assert _stream(result) == _stream(seq)
        assert result.stats.extra["parallel_stages"] >= 2

    def test_k_larger_than_result_set(self):
        tree_r = RTree.bulk_load(_points(80, 51))
        tree_s = RTree.bulk_load(_points(80, 52))
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(80 * 80 + 5, "amkdj")
        config = JoinConfig(parallel=1)
        result = parallel_kdj(tree_r, tree_s, 80 * 80 + 5, config=config)
        assert _stream(result) == _stream(seq)
        assert len(result.results) == 80 * 80


#: (|R|, |S|, generator, seed, k): adversarial shapes for the ``nlj``
#: oracle; S is drawn with ``seed + 1``.
ORACLE_CASES = {
    "one-by-one": (1, 1, _points, 61, 1),
    "one-by-500": (1, 500, _points, 63, 7),
    "unequal-heights": (20, 3000, _points, 65, 50),
    "exact-ties": (400, 400, _rects, 67, 300),
    "k-above-pair-count": (12, 9, _points, 69, 200),
}


@pytest.fixture(scope="module")
def oracle_runs():
    """Per case: the trees, the objects by id, and the ``nlj`` answer."""
    runs = {}
    for name, (n_r, n_s, make, seed, k) in ORACLE_CASES.items():
        items_r, items_s = make(n_r, seed), make(n_s, seed + 1)
        tree_r, tree_s = RTree.bulk_load(items_r), RTree.bulk_load(items_s)
        oracle = JoinRunner(tree_r, tree_s).kdj(k, "nlj")
        runs[name] = (tree_r, tree_s, dict((i, r) for r, i in items_r),
                      dict((i, r) for r, i in items_s), k, oracle)
    return runs


#: Every other way a stage runs at two workers: without fork (inline),
#: and each worker fault plan the crash tests use.  The stalled worker
#: times out after 0.05 s: every forked stage waits that long for it.
RUNTIME_PATHS = {
    "no-fork": None,
    "crash-one": "worker_crash:@1",
    "kill-one": "worker_kill:@0",
    "crash-all": "worker_crash",
    "stall-one": "worker_stall:@1,stall_s=1.0",
}

#: The oracle cases with a stage of two tasks or more: there the fault
#: plans fire in forked workers.  Every stage of the other cases holds
#: one task, which the calling thread drains.
FORKING_CASES = ("unequal-heights", "exact-ties")


class TestOracle:
    """Tie-aware agreement with ``nlj``: equal distance multisets, every
    pair's distance that of its two objects, no pair twice."""

    @staticmethod
    def check(oracle_run, result):
        tree_r, tree_s, rects_r, rects_s, k, oracle = oracle_run
        assert len(result.results) == min(k, tree_r.size * tree_s.size)
        assert sorted(result.distances) == sorted(oracle.distances)
        pairs = [(p.ref_r, p.ref_s) for p in result.results]
        assert len(set(pairs)) == len(pairs)
        for pair in result.results:
            assert pair.distance == min_distance(
                rects_r[pair.ref_r], rects_s[pair.ref_s]
            )
        assert _no_live_workers()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_agrees_with_nlj(self, oracle_runs, case, mode, workers):
        tree_r, tree_s, *_, k, _ = oracle_runs[case]
        config = JoinConfig(parallel=workers, parallel_mode=mode)
        result = parallel_kdj(tree_r, tree_s, k, config)
        assert result.stats.extra["parallel_workers"] == workers
        assert result.stats.extra["parallel_mode"] == _runtime(workers)
        self.check(oracle_runs[case], result)

    @pytest.mark.parametrize("path", list(RUNTIME_PATHS))
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_agrees_with_nlj_on_every_runtime_path(
        self, oracle_runs, monkeypatch, case, path
    ):
        tree_r, tree_s, *_, k, _ = oracle_runs[case]
        if path == "no-fork":
            monkeypatch.setattr(sys, "platform", "darwin")
            config = JoinConfig(parallel=2)
        else:
            config = JoinConfig(
                parallel=2,
                worker_timeout_s=0.05 if path == "stall-one" else None,
                fault_plan=FaultPlan.parse(RUNTIME_PATHS[path]),
            )
        result = parallel_kdj(tree_r, tree_s, k, config)
        self.check(oracle_runs[case], result)
        if path != "no-fork" and runtime._fork_context() is not None:
            extra = result.stats.extra
            forked = extra["parallel_frontier"] >= 2
            assert forked == (case in FORKING_CASES)
            if forked:
                # The plan reached a forked worker and fired.
                assert extra["resilience_worker_failures"] >= 1

    def test_one_task_stages_start_no_process(self, oracle_runs, monkeypatch):
        # "one-by-500" widens through 31 stages of one task each: none has
        # anything to run in parallel, so none forks workers for it.
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        tree_r, tree_s, *_, k, _ = oracle_runs["one-by-500"]
        result = parallel_kdj(tree_r, tree_s, k, JoinConfig(parallel=2))
        assert started == []
        extra = result.stats.extra
        assert extra["parallel_stages"] >= 2
        assert extra["parallel_frontier"] == 1
        assert extra["parallel_mode"] == _runtime(2)
        self.check(oracle_runs["one-by-500"], result)


class TestScheduler:
    def test_task_counters_exported(self, point_trees, sequential):
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=2)
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        extra = result.stats.extra
        assert extra["obs.shm.tasks"] >= 1
        if extra["parallel_mode"] == "process":
            assert extra["obs.shm.ready"] == 2
        # Shallow trees can legitimately push nothing (the frontier
        # split already reached leaf-leaf tasks), but the counter and
        # kernel telemetry must be exported either way.
        assert extra["shm.stack_pushes"] >= 0
        assert extra["kernels.batches"] > 0
        assert extra["kernels.batched_pairs"] > 0

    def test_occupancy_gauges_present(self, point_trees):
        tree_r, tree_s = point_trees
        if runtime._fork_context() is None:
            pytest.skip("occupancy is measured per forked worker")
        config = JoinConfig(parallel=2)
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        gauges = [
            k for k in result.stats.extra if k.startswith("obs.shm.occupancy.w")
        ]
        assert gauges, "per-worker occupancy gauges missing"
        for name in gauges:
            assert 0.0 <= result.stats.extra[name] <= 1.0

    def test_work_accounting_matches_serial(self, point_trees):
        # Worker processes and the inline drain traverse identically, so
        # the work counters must agree apart from cutoff-timing jitter.
        tree_r, tree_s = point_trees
        serial = parallel_kdj(tree_r, tree_s, 400, config=JoinConfig(parallel=1))
        processes = parallel_kdj(tree_r, tree_s, 400, config=JoinConfig(parallel=2))
        a = serial.stats.real_distance_computations
        b = processes.stats.real_distance_computations
        assert abs(a - b) <= 0.05 * max(a, b)


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", ["shm-process"])
    def test_single_crash_recovers_identically(self, point_trees, sequential, mode):
        tree_r, tree_s = point_trees
        config = JoinConfig(
            parallel=2,
            parallel_mode=mode,
            fault_plan=FaultPlan.parse("worker_crash:@1"),
        )
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["resilience_worker_failures"] >= 1
        # The surviving worker takes the crashed one's share: the parent
        # never has to drain a stage inline.
        assert "resilience_worker_fallbacks" not in result.stats.extra
        assert _no_live_workers()

    def test_kill_recovers_identically(self, point_trees, sequential):
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=2, fault_plan=FaultPlan.parse("worker_kill:@0"))
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["resilience_worker_failures"] >= 1
        assert _no_live_workers()

    @pytest.mark.parametrize("mode", ["shm-process"])
    def test_all_workers_dead_falls_back_inline(self, point_trees, sequential, mode):
        tree_r, tree_s = point_trees
        config = JoinConfig(
            parallel=2,
            parallel_mode=mode,
            fault_plan=FaultPlan.parse("worker_crash"),
        )
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["resilience_worker_failures"] == 2
        assert result.stats.extra["resilience_worker_fallbacks"] >= 1
        assert _no_live_workers()

    @pytest.mark.parametrize("mode", ["shm-process"])
    def test_stall_times_out_and_recovers(self, point_trees, sequential, mode):
        # Worker 1 sleeps on entry far past the timeout: it times out on
        # its own (worker 0 came up fine) and its share goes to worker 0.
        tree_r, tree_s = point_trees
        plan = FaultPlan.parse("worker_stall:@1,stall_s=1.5")
        config = JoinConfig(
            parallel=2, parallel_mode=mode, worker_timeout_s=0.2, fault_plan=plan
        )
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["resilience_worker_timeouts"] >= 1
        assert result.stats.extra["resilience_worker_failures"] >= 1
        assert _no_live_workers()

    @pytest.mark.parametrize("mode", ["shm-process"])
    def test_unstarted_worker_is_stopped_at_stage_end(self, point_trees, sequential, mode):
        # No timeout set: worker 1 sleeps on entry while worker 0 does
        # the whole stage.  The stage then ends it without a grace join
        # and counts it.
        tree_r, tree_s = point_trees
        plan = FaultPlan.parse("worker_stall:@1,stall_s=2.0")
        config = JoinConfig(parallel=2, parallel_mode=mode, fault_plan=plan)
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["resilience_worker_unstarted"] >= 1
        assert "resilience_worker_timeouts" not in result.stats.extra
        assert _no_live_workers()

    def test_faulted_runs_leave_no_live_worker(self, point_trees):
        tree_r, tree_s = point_trees
        for plan in ("worker_crash:@0", "worker_kill", "worker_crash"):
            config = JoinConfig(parallel=2, fault_plan=FaultPlan.parse(plan))
            parallel_kdj(tree_r, tree_s, 100, config=config)
            assert _no_live_workers(), f"worker left running after {plan!r}"


class TestMutatedTree:
    """A write to S rebuilds S's node blocks alone; R's are reused, and
    the sequential engines build none.  ``mode`` selects nothing."""

    @pytest.mark.parametrize("mode", ["shm-serial", "shm-process"])
    def test_mode_tracks_write_and_reuses_r_image(self, mode, block_builds):
        tree_r = RTree.bulk_load(_points(800, 41))
        items_s = _points(800, 42)
        tree_s = RTree.bulk_load(items_s)
        config = JoinConfig(parallel=2, parallel_mode=mode)
        before = parallel_kdj(tree_r, tree_s, 300, config=config)
        assert block_builds == [tree_r, tree_s]
        blocks_r = TreeArena(tree_r, tree_s).blocks_r
        assert _stream(before) == _stream(JoinRunner(tree_r, tree_s).kdj(300, "amkdj"))
        rng = random.Random(43)
        for rect, oid in items_s[:40]:
            assert tree_s.delete(rect, oid)
            tree_s.insert(
                Rect.from_point(rng.uniform(0, 1000), rng.uniform(0, 1000)), oid
            )
        seq = JoinRunner(tree_r, tree_s).kdj(300, "amkdj")
        assert block_builds == [tree_r, tree_s]
        result = parallel_kdj(tree_r, tree_s, 300, config=config)
        assert block_builds == [tree_r, tree_s, tree_s]
        assert_blocks_describe(tree_s)
        assert _stream(result) == _stream(seq)
        assert _stream(seq) == _stream(JoinRunner(tree_r, tree_s).kdj(300, "nlj"))
        assert TreeArena(tree_r, tree_s).blocks_r is blocks_r
        assert block_builds == [tree_r, tree_s, tree_s]
        assert _no_live_workers()
