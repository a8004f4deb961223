"""The parallel engine: serialization, identity, work stealing, and
crash recovery.

Identity is the load-bearing property: every mode, at one worker as at
two, must return the result set the sequential engine produces (and
agree tie-aware with the ``nlj`` oracle on adversarial inputs), with or
without injected faults.  The serialization tests pin the flat-buffer
layout; the fault tests additionally assert that no ``/dev/shm`` segment
outlives a run.
"""

import math
import random
import threading

import pytest

from repro.core.api import JoinConfig, JoinRunner
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.parallel.engine import parallel_kdj
from repro.parallel.shm import (
    AttachedArena,
    SharedTreeView,
    TreeArena,
    active_segments,
    tree_image,
)
from repro.resilience.faults import FaultPlan
from repro.rtree.tree import RTree

from tests.conftest import BACKENDS


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


def _walk(view):
    """Rows reachable from the layout's root, parents before children."""
    rows, pending = [], [view.layout.root]
    while pending:
        row = pending.pop()
        rows.append(row)
        if int(view.lvl[row]):
            lo, hi = view.span(row)
            pending.extend(int(view.eref[j]) for j in range(lo, hi))
    return rows


class TestSerialization:
    def test_layout_roundtrip(self):
        tree = RTree.bulk_load(_points(300, 5))
        layout, buf = tree_image(tree)
        assert layout.size == tree.size
        assert layout.height == tree.height
        assert layout.root == tree.root_id
        assert layout.rows == tree.store.id_bound
        assert layout.slots == tree.max_entries
        assert len(buf) == layout.nbytes
        view = SharedTreeView(layout, memoryview(buf))
        root = layout.root
        # The root's subtree count covers every object.
        assert int(view.cnt[root]) == tree.size
        assert view.node_rect(root) == tree.bounds()
        # Level decreases root-to-leaf; leaves are level 0.
        assert int(view.lvl[root]) == tree.height - 1
        view.release()

    def test_rows_are_page_ids_and_free_rows_are_zero(self):
        tree = RTree.bulk_load(_points(400, 6), max_entries=8)
        layout, buf = tree_image(tree)
        view = SharedTreeView(layout, memoryview(buf))
        m = layout.slots
        live = set(tree.store.page_ids())
        # Page 0 is the bootstrap root a bulk load frees: never row 0.
        assert 0 not in live and layout.root != 0
        for row in range(layout.rows):
            lo, hi = view.span(row)
            if row in live:
                assert (lo, hi) == (row * m, row * m + len(tree._get_node(row)))
                vacated = range(hi, (row + 1) * m)
            else:
                assert (lo, hi) == (0, 0)
                assert int(view.cnt[row]) == int(view.lvl[row]) == 0
                assert view.node_rect(row) == Rect(0.0, 0.0, 0.0, 0.0)
                vacated = range(row * m, (row + 1) * m)
            for j in vacated:
                assert int(view.eref[j]) == 0
                assert view.entry_rect(j) == Rect(0.0, 0.0, 0.0, 0.0)
        view.release()

    def test_children_follow_parents(self):
        tree = RTree.bulk_load(_points(400, 6))
        layout, buf = tree_image(tree)
        view = SharedTreeView(layout, memoryview(buf))
        rows = _walk(view)
        assert sorted(rows) == sorted(tree.store.page_ids())
        for row in rows:
            if int(view.lvl[row]) == 0:
                continue
            lo, hi = view.span(row)
            for j in range(lo, hi):
                child = int(view.eref[j])
                assert int(view.lvl[child]) == int(view.lvl[row]) - 1
                # A directory entry's MBR is its child row's node MBR.
                assert view.entry_rect(j) == view.node_rect(child)
        view.release()

    def test_leaf_entries_carry_object_ids(self):
        items = _points(64, 7)
        tree = RTree.bulk_load(items)
        layout, buf = tree_image(tree)
        view = SharedTreeView(layout, memoryview(buf))
        seen = []
        for row in _walk(view):
            if int(view.lvl[row]) != 0:
                continue
            lo, hi = view.span(row)
            seen.extend(int(view.eref[j]) for j in range(lo, hi))
        assert sorted(seen) == sorted(oid for _, oid in items)
        view.release()

    def test_arena_local_and_shm_byte_equal(self):
        tree_r = RTree.bulk_load(_points(200, 8))
        tree_s = RTree.bulk_load(_points(200, 9))
        local = TreeArena(tree_r, tree_s, use_shm=False)
        shm = TreeArena(tree_r, tree_s, use_shm=True)
        try:
            descriptor = shm.descriptor()
            assert descriptor is not None
            assert local.descriptor() is None
            attached = AttachedArena(descriptor)
            assert attached.view_r.layout == local.view_r.layout
            root = local.layout_r.root
            assert attached.view_r.node_rect(root) == local.view_r.node_rect(root)
            assert bytes(attached.view_r.eref) == bytes(local.view_r.eref)
            attached.close()
        finally:
            local.close()
            shm.close()
        assert active_segments() == []

    def test_arena_close_is_idempotent_and_unlinks(self):
        tree = RTree.bulk_load(_points(100, 10))
        arena = TreeArena(tree, tree, use_shm=True)
        assert arena.segment in active_segments()
        arena.close()
        arena.close()
        assert active_segments() == []

    def test_mindist_contract_matches_scalar(self):
        # The kernels' shortcut arithmetic must reproduce min_distance
        # bit-for-bit over the shared views — this is what makes the
        # parallel stream byte-identical.
        from repro.kernels import resolve_backend

        tree_r = RTree.bulk_load(_rects(120, 13))
        tree_s = RTree.bulk_load(_rects(120, 14))
        arena = TreeArena(tree_r, tree_s, use_shm=False)
        try:
            vr, vs = arena.view_r, arena.view_s
            kern = resolve_backend()
            rect = vr.entry_rect(vr.span(vr.layout.root)[0])
            lo, hi = vs.span(vs.layout.root)
            hits = kern.block_within(rect, vs.entries.slice(lo, hi), math.inf)
            assert hits, "unbounded query must hit every entry"
            for j, dist in hits:
                assert dist == min_distance(rect, vs.entry_rect(lo + j))
        finally:
            arena.close()


MODES = ["shm-serial", "shm-thread", "shm-process"]


class TestIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_modes_identical_to_sequential(self, point_trees, sequential, mode):
        tree_r, tree_s = point_trees
        for workers in (1, 2):
            config = JoinConfig(parallel=workers, parallel_mode=mode)
            result = parallel_kdj(tree_r, tree_s, 400, config=config)
            assert _stream(result) == _stream(sequential)
            assert result.stats.extra["parallel_workers"] == workers
            assert result.stats.extra["parallel_mode"] == mode
            assert result.stats.extra["parallel_stages"] >= 1

    def test_rect_data_with_distance_ties(self):
        tree_r = RTree.bulk_load(_rects(600, 31))
        tree_s = RTree.bulk_load(_rects(600, 32))
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(250, "amkdj")
        config = JoinConfig(parallel=2, parallel_mode="shm-thread")
        result = parallel_kdj(tree_r, tree_s, 250, config=config)
        assert _stream(result) == _stream(seq)

    def test_python_kernels_identical(self, point_trees, sequential, kernels_backend):
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=2, parallel_mode="shm-serial")
        rows = set()
        for backend in BACKENDS:
            with kernels_backend(backend):
                result = parallel_kdj(tree_r, tree_s, 400, config=config)
            assert _stream(result) == _stream(sequential), backend
            row = result.stats.as_row()
            del row["wall_time"]
            rows.add(repr(sorted(row.items())))
        assert len(rows) == 1

    def test_exact_algorithms_run_sequentially(self, point_trees):
        # Only AM-KDJ has a parallel engine: an exact baseline asked for
        # workers runs the sequential code, the engine never starts.
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=2, parallel_mode="shm-serial")
        result = JoinRunner(tree_r, tree_s, config).kdj(50, "hs")
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(50, "hs")
        assert _stream(result) == _stream(seq)
        assert "obs.shm.tasks" not in result.stats.extra
        assert "parallel_workers" not in result.stats.extra

    def test_widening_reruns_stage_on_clustered_data(self):
        # Two tight clusters far apart: the uniform-density eDmax
        # estimate undershoots badly, forcing at least one widening.
        items_r = _points(400, 41, span=10.0)
        items_s = [
            (Rect.from_point(r.xmin + 500.0, r.ymin + 500.0), i)
            for (r, _), i in zip(_points(400, 42, span=10.0), range(400))
        ]
        tree_r = RTree.bulk_load(items_r)
        tree_s = RTree.bulk_load(items_s)
        k = 300
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(k, "amkdj")
        config = JoinConfig(parallel=2, parallel_mode="shm-serial")
        result = parallel_kdj(tree_r, tree_s, k, config=config)
        assert _stream(result) == _stream(seq)
        assert result.stats.extra["parallel_stages"] >= 2

    def test_k_larger_than_result_set(self):
        tree_r = RTree.bulk_load(_points(80, 51))
        tree_s = RTree.bulk_load(_points(80, 52))
        seq = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(80 * 80 + 5, "amkdj")
        config = JoinConfig(parallel=2, parallel_mode="shm-serial")
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


class TestOracle:
    """Tie-aware agreement with ``nlj``: equal distance multisets, every
    pair's distance that of its two objects, no pair twice."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_agrees_with_nlj(self, oracle_runs, case, mode, workers):
        tree_r, tree_s, rects_r, rects_s, k, oracle = oracle_runs[case]
        config = JoinConfig(parallel=workers, parallel_mode=mode)
        result = parallel_kdj(tree_r, tree_s, k, config)
        assert result.stats.extra["parallel_workers"] == workers
        assert len(result.results) == min(k, tree_r.size * tree_s.size)
        assert sorted(result.distances) == sorted(oracle.distances)
        pairs = [(p.ref_r, p.ref_s) for p in result.results]
        assert len(set(pairs)) == len(pairs)
        for pair in result.results:
            assert pair.distance == min_distance(
                rects_r[pair.ref_r], rects_s[pair.ref_s]
            )
        assert active_segments() == []


class TestScheduler:
    def test_task_and_steal_counters_exported(self, point_trees, sequential):
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=2, parallel_mode="shm-thread")
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        extra = result.stats.extra
        assert extra["obs.shm.tasks"] >= 1
        assert extra["obs.shm.attaches"] == 2
        # Shallow trees can legitimately push nothing (the frontier
        # split already reached leaf-leaf tasks), but the counter and
        # kernel telemetry must be exported either way.
        assert extra["shm.stack_pushes"] >= 0
        assert extra["kernels.batches"] > 0
        assert extra["kernels.batched_pairs"] > 0

    def test_occupancy_gauges_present(self, point_trees):
        tree_r, tree_s = point_trees
        config = JoinConfig(parallel=2, parallel_mode="shm-thread")
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        gauges = [
            k for k in result.stats.extra if k.startswith("obs.shm.occupancy.w")
        ]
        assert gauges, "per-worker occupancy gauges missing"
        for name in gauges:
            assert 0.0 <= result.stats.extra[name] <= 1.0

    def test_work_accounting_matches_serial(self, point_trees):
        # Thread workers and the inline drain traverse identically, so
        # the work counters must agree apart from steal-timing jitter.
        tree_r, tree_s = point_trees
        serial = parallel_kdj(
            tree_r, tree_s, 400,
            config=JoinConfig(parallel=2, parallel_mode="shm-serial"),
        )
        threaded = parallel_kdj(
            tree_r, tree_s, 400,
            config=JoinConfig(parallel=2, parallel_mode="shm-thread"),
        )
        a = serial.stats.real_distance_computations
        b = threaded.stats.real_distance_computations
        assert abs(a - b) <= 0.05 * max(a, b)


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", ["shm-thread", "shm-process"])
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
        assert active_segments() == []

    def test_kill_recovers_identically(self, point_trees, sequential):
        tree_r, tree_s = point_trees
        config = JoinConfig(
            parallel=2,
            parallel_mode="shm-process",
            fault_plan=FaultPlan.parse("worker_kill:@0"),
        )
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["resilience_worker_failures"] >= 1
        assert active_segments() == []

    @pytest.mark.parametrize("mode", ["shm-thread", "shm-process"])
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
        assert active_segments() == []

    @pytest.mark.parametrize("mode", ["shm-thread", "shm-process"])
    def test_stall_times_out_and_recovers(self, point_trees, sequential, mode):
        # Worker 1 sleeps on entry far past the timeout: it times out on
        # its own (worker 0 came up fine), its share goes to worker 0,
        # and the stop message it finds on waking ends an abandoned
        # thread.
        tree_r, tree_s = point_trees
        plan = FaultPlan.parse("worker_stall:@1,stall_s=1.5")
        config = JoinConfig(
            parallel=2, parallel_mode=mode, worker_timeout_s=0.2, fault_plan=plan
        )
        result = parallel_kdj(tree_r, tree_s, 400, config=config)
        assert _stream(result) == _stream(sequential)
        assert result.stats.extra["resilience_worker_timeouts"] >= 1
        assert result.stats.extra["resilience_worker_failures"] >= 1
        workers = [t for t in threading.enumerate() if "_shm_worker" in t.name]
        for thread in workers:
            thread.join(plan.stall_s + 1.0)
        assert not [t for t in workers if t.is_alive()]
        assert active_segments() == []

    @pytest.mark.parametrize("mode", ["shm-thread", "shm-process"])
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
        workers = [t for t in threading.enumerate() if "_shm_worker" in t.name]
        for thread in workers:
            thread.join(plan.stall_s + 1.0)
        assert not [t for t in workers if t.is_alive()]
        assert active_segments() == []

    def test_segments_cleaned_after_faulted_runs(self, point_trees):
        tree_r, tree_s = point_trees
        for plan in ("worker_crash:@0", "worker_kill", "worker_crash"):
            config = JoinConfig(
                parallel=2,
                parallel_mode="shm-process",
                fault_plan=FaultPlan.parse(plan),
            )
            parallel_kdj(tree_r, tree_s, 100, config=config)
            assert active_segments() == [], f"segment leak after {plan!r}"


class TestMutatedTree:
    """A write to S patches S's image alone; R's image is reused."""

    @pytest.mark.parametrize("mode", ["shm-serial", "shm-process"])
    def test_mode_tracks_write_and_reuses_r_image(self, mode, image_builds):
        tree_r = RTree.bulk_load(_points(800, 41))
        items_s = _points(800, 42)
        tree_s = RTree.bulk_load(items_s)
        TreeArena(tree_r, tree_s, use_shm=False).close()  # cache both images
        image_r = tree_image(tree_r)
        rng = random.Random(43)
        for rect, oid in items_s[:40]:
            assert tree_s.delete(rect, oid)
            tree_s.insert(
                Rect.from_point(rng.uniform(0, 1000), rng.uniform(0, 1000)), oid
            )
        del image_builds[:]
        config = JoinConfig(parallel=2, parallel_mode=mode)
        result = parallel_kdj(tree_r, tree_s, 300, config=config)
        assert image_builds == [(tree_s, "patch")]
        # The sequential reference reuses the patched image.
        seq = JoinRunner(tree_r, tree_s).kdj(300, "amkdj")
        assert image_builds == [(tree_s, "patch")]
        assert _stream(result) == _stream(seq)
        assert tree_image(tree_r) is image_r
        assert active_segments() == []
