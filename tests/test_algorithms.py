"""Correctness tests for all five join algorithms against brute force."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import JoinConfig, JoinRunner
from repro.core.base import JoinContext
from repro.core.sjsort import spatial_join_within
from repro.geometry.rect import Rect
from repro.parallel.engine import parallel_kdj
from repro.rtree.tree import RTree

from tests.conftest import (
    assert_distances_close,
    brute_force_distances,
    brute_force_within,
    random_rects,
)

SMALL_CFG = JoinConfig(queue_memory=8 * 1024, buffer_memory=32 * 1024)


def runner_for(small_trees) -> JoinRunner:
    tree_r, tree_s = small_trees
    return JoinRunner(tree_r, tree_s, SMALL_CFG)


KDJ_ALGS = ["hs", "bkdj", "amkdj", "sjsort"]
IDJ_ALGS = ["hs", "amidj"]


class TestKDJCorrectness:
    @pytest.mark.parametrize("algorithm", KDJ_ALGS)
    @pytest.mark.parametrize("k", [1, 7, 100, 1500])
    def test_matches_brute_force(self, small_trees, small_r, small_s, algorithm, k):
        expected = brute_force_distances(small_r, small_s, k)
        result = runner_for(small_trees).kdj(k, algorithm)
        assert_distances_close(result.distances, expected)

    @pytest.mark.parametrize("algorithm", KDJ_ALGS)
    def test_k_beyond_all_pairs(self, small_trees, small_r, small_s, algorithm):
        total = len(small_r) * len(small_s)
        expected = brute_force_distances(small_r, small_s, total)
        result = runner_for(small_trees).kdj(total + 500, algorithm)
        assert_distances_close(result.distances, expected)

    @pytest.mark.parametrize("algorithm", KDJ_ALGS)
    def test_invalid_k(self, small_trees, algorithm):
        with pytest.raises(ValueError):
            runner_for(small_trees).kdj(0, algorithm)

    @pytest.mark.parametrize("algorithm", KDJ_ALGS)
    def test_empty_side(self, algorithm):
        empty = RTree.bulk_load([])
        other = RTree.bulk_load(random_rects(20, seed=1), max_entries=8)
        result = JoinRunner(empty, other, SMALL_CFG).kdj(5, algorithm)
        assert result.results == []

    def test_result_pairs_reference_real_objects(self, small_trees, small_r, small_s):
        result = runner_for(small_trees).kdj(50, "bkdj")
        from repro.geometry.distances import min_distance

        for distance, ref_r, ref_s in result.results:
            rect_r = small_r[ref_r][0]
            rect_s = small_s[ref_s][0]
            assert math.isclose(min_distance(rect_r, rect_s), distance, abs_tol=1e-9)

    def test_no_duplicate_result_pairs(self, small_trees):
        for algorithm in KDJ_ALGS:
            result = runner_for(small_trees).kdj(800, algorithm)
            pairs = [(p.ref_r, p.ref_s) for p in result.results]
            assert len(pairs) == len(set(pairs)), algorithm


class TestIDJCorrectness:
    @pytest.mark.parametrize("algorithm", IDJ_ALGS)
    def test_streams_in_order(self, small_trees, small_r, small_s, algorithm):
        expected = brute_force_distances(small_r, small_s, 600)
        stream = runner_for(small_trees).idj(algorithm)
        got = [p.distance for p in stream.next_batch(600)]
        assert_distances_close(got, expected)

    @pytest.mark.parametrize("algorithm", IDJ_ALGS)
    def test_batched_pulls_are_seamless(self, small_trees, small_r, small_s, algorithm):
        expected = brute_force_distances(small_r, small_s, 300)
        stream = runner_for(small_trees).idj(algorithm)
        got = []
        for _ in range(6):
            got.extend(p.distance for p in stream.next_batch(50))
        assert_distances_close(got, expected)

    @pytest.mark.parametrize("algorithm", IDJ_ALGS)
    def test_exhaustion_returns_every_pair_once(self, algorithm):
        items_r = random_rects(25, seed=2, span=200)
        items_s = random_rects(20, seed=3, span=200)
        runner = JoinRunner(
            RTree.bulk_load(items_r, max_entries=4),
            RTree.bulk_load(items_s, max_entries=4),
            SMALL_CFG,
        )
        everything = list(runner.idj(algorithm))
        assert len(everything) == 25 * 20
        assert len({(p.ref_r, p.ref_s) for p in everything}) == 25 * 20
        expected = brute_force_distances(items_r, items_s, 25 * 20)
        assert_distances_close([p.distance for p in everything], expected)

    def test_amidj_forced_multi_stage(self, small_trees, small_r, small_s):
        # A tiny initial_k forces many stage transitions.
        tree_r, tree_s = small_trees
        runner = JoinRunner(
            tree_r, tree_s,
            JoinConfig(queue_memory=8 * 1024, initial_k=5),
        )
        stream = runner.idj("amidj")
        got = [p.distance for p in stream.next_batch(500)]
        assert_distances_close(got, brute_force_distances(small_r, small_s, 500))
        assert stream.stats().compensation_stages >= 1

    def test_amidj_explicit_schedule(self, small_trees, small_r, small_s):
        tree_r, tree_s = small_trees
        expected = brute_force_distances(small_r, small_s, 400)
        schedule = (expected[99], expected[199], expected[399])
        runner = JoinRunner(
            tree_r, tree_s,
            JoinConfig(queue_memory=8 * 1024, initial_k=100,
                       edmax_schedule=schedule),
        )
        got = [p.distance for p in runner.idj("amidj").next_batch(400)]
        assert_distances_close(got, expected)


class TestAMKDJEstimates:
    """AM-KDJ must be exact for any eDmax, however wrong (Figure 14)."""

    @pytest.mark.parametrize("factor", [0.0, 0.01, 0.1, 0.5, 1.0, 3.0, 100.0])
    def test_any_edmax_is_exact(self, small_trees, small_r, small_s, factor):
        k = 400
        expected = brute_force_distances(small_r, small_s, k)
        dmax = expected[-1]
        tree_r, tree_s = small_trees
        runner = JoinRunner(
            tree_r, tree_s,
            JoinConfig(queue_memory=8 * 1024, edmax=factor * dmax),
        )
        result = runner.kdj(k, "amkdj")
        assert_distances_close(result.distances, expected)

    def test_underestimate_triggers_compensation(self, small_trees, small_r, small_s):
        k = 400
        dmax = brute_force_distances(small_r, small_s, k)[-1]
        tree_r, tree_s = small_trees
        runner = JoinRunner(
            tree_r, tree_s, JoinConfig(queue_memory=8 * 1024, edmax=0.2 * dmax)
        )
        result = runner.kdj(k, "amkdj")
        assert result.stats.compensation_stages == 1

    def test_overestimate_skips_compensation(self, small_trees, small_r, small_s):
        k = 100
        dmax = brute_force_distances(small_r, small_s, k)[-1]
        tree_r, tree_s = small_trees
        runner = JoinRunner(
            tree_r, tree_s, JoinConfig(queue_memory=8 * 1024, edmax=5.0 * dmax)
        )
        result = runner.kdj(k, "amkdj")
        assert result.stats.compensation_stages == 0

    def test_adaptive_correction_is_exact(self, small_trees, small_r, small_s):
        k = 600
        expected = brute_force_distances(small_r, small_s, k)
        tree_r, tree_s = small_trees
        runner = JoinRunner(
            tree_r, tree_s,
            JoinConfig(queue_memory=8 * 1024, adaptive_edmax=True),
        )
        assert_distances_close(runner.kdj(k, "amkdj").distances, expected)


class TestOptionVariants:
    @pytest.mark.parametrize(
        "options",
        [
            {"optimize_axis": False},
            {"optimize_direction": False},
            {"optimize_axis": False, "optimize_direction": False},
            {"distance_queue_all_pairs": True},
        ],
    )
    def test_bkdj_variants_exact(self, small_trees, small_r, small_s, options):
        expected = brute_force_distances(small_r, small_s, 300)
        tree_r, tree_s = small_trees
        runner = JoinRunner(
            tree_r, tree_s, JoinConfig(queue_memory=8 * 1024, **options)
        )
        assert_distances_close(runner.kdj(300, "bkdj").distances, expected)

    @pytest.mark.parametrize("policy", ["level", "larger", "r", "s", "alternate"])
    def test_hs_policies_exact(self, small_trees, small_r, small_s, policy):
        expected = brute_force_distances(small_r, small_s, 200)
        tree_r, tree_s = small_trees
        runner = JoinRunner(
            tree_r, tree_s,
            JoinConfig(queue_memory=8 * 1024, expansion_policy=policy),
        )
        assert_distances_close(runner.kdj(200, "hs").distances, expected)

    def test_hs_without_insert_pruning_is_exact_but_heavier(
        self, small_trees, small_r, small_s
    ):
        tree_r, tree_s = small_trees
        expected = brute_force_distances(small_r, small_s, 200)
        pruned = JoinRunner(tree_r, tree_s, SMALL_CFG).kdj(200, "hs")
        unpruned = JoinRunner(
            tree_r, tree_s,
            JoinConfig(queue_memory=8 * 1024, hs_insert_pruning=False),
        ).kdj(200, "hs")
        assert_distances_close(unpruned.distances, expected)
        assert unpruned.stats.queue_insertions >= pruned.stats.queue_insertions


class TestSpatialJoinWithin:
    @pytest.mark.parametrize("dmax", [0.0, 10.0, 60.0, 1e6])
    def test_within_matches_brute_force(self, small_trees, small_r, small_s, dmax):
        tree_r, tree_s = small_trees
        ctx = JoinContext(tree_r, tree_s, queue_memory=8 * 1024)
        got = {(p.ref_r, p.ref_s) for p in spatial_join_within(ctx, dmax)}
        assert got == brute_force_within(small_r, small_s, dmax)

    def test_within_emits_no_duplicates(self, small_trees):
        tree_r, tree_s = small_trees
        ctx = JoinContext(tree_r, tree_s, queue_memory=8 * 1024)
        pairs = [(p.ref_r, p.ref_s) for p in spatial_join_within(ctx, 80.0)]
        assert len(pairs) == len(set(pairs))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([1, 13, 200]),
    algorithm=st.sampled_from(KDJ_ALGS),
)
def test_kdj_random_datasets(seed, k, algorithm):
    items_r = random_rects(60, seed=seed, span=300)
    items_s = random_rects(45, seed=seed + 77_000, span=300)
    runner = JoinRunner(
        RTree.bulk_load(items_r, max_entries=4),
        RTree.bulk_load(items_s, max_entries=4),
        SMALL_CFG,
    )
    expected = brute_force_distances(items_r, items_s, k)
    assert_distances_close(runner.kdj(k, algorithm).distances, expected)


class TestUnderflowingGaps:
    """Gaps whose squares underflow still read as apart, on every engine.

    R is the point (0, 0); S holds 40 points ``(i * 1e-170, i * 1e-170)``,
    so every pair's ``sqrt(dx*dx + dy*dy)`` is 0.0 and the distance is
    the larger gap, ``i * 1e-170``.  Forty children put HS's batch on the
    NumPy backend's vector path, where NumPy imports.
    """

    @pytest.fixture(scope="class")
    def trees(self):
        tree_r = RTree.bulk_load([(Rect.from_point(0.0, 0.0), 0)])
        tree_s = RTree.bulk_load(
            [(Rect.from_point(i * 1e-170, i * 1e-170), i) for i in range(1, 41)],
            max_entries=64,
        )
        return tree_r, tree_s

    @pytest.mark.parametrize("k", [1, 40])
    @pytest.mark.parametrize("algorithm", ["nlj", *KDJ_ALGS])
    def test_kdj_engines(self, trees, algorithm, k):
        dmax = k * 1e-170 if algorithm == "sjsort" else None
        result = JoinRunner(*trees).kdj(k, algorithm, dmax)
        assert result.distances == [i * 1e-170 for i in range(1, k + 1)]
        assert result.distances[0] == 1e-170
        assert [p.ref_s for p in result.results] == list(range(1, k + 1))

    @pytest.mark.parametrize("k", [1, 40])
    def test_parallel_engine(self, trees, k):
        config = JoinConfig(parallel=2, parallel_mode="shm-serial")
        result = parallel_kdj(*trees, k, config)
        assert result.distances == [i * 1e-170 for i in range(1, k + 1)]

    def test_amidj_pull(self, trees):
        with JoinRunner(*trees).idj("amidj") as stream:
            pairs = stream.next_batch(40)
        assert [p.distance for p in pairs] == [i * 1e-170 for i in range(1, 41)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", ["python", "numpy"])
class TestOverflowingGaps:
    """Gaps whose squares overflow still read their distance, on every engine.

    R is the point (0, 0); S holds 40 points ``(i * 1e155, i * 1e155)``,
    so every pair's ``dx*dx + dy*dy`` overflows to ``inf`` and the
    distance is ``math.hypot(i * 1e155, i * 1e155)``.  Forty children put
    HS's batch on the NumPy backend's vector path, where NumPy imports.
    An overflow warning fails the test.
    """

    @pytest.fixture(scope="class")
    def trees(self):
        tree_r = RTree.bulk_load([(Rect.from_point(0.0, 0.0), 0)])
        tree_s = RTree.bulk_load(
            [(Rect.from_point(i * 1e155, i * 1e155), i) for i in range(1, 41)],
            max_entries=64,
        )
        return tree_r, tree_s

    @staticmethod
    def expected(k):
        return [math.hypot(i * 1e155, i * 1e155) for i in range(1, k + 1)]

    @pytest.mark.parametrize("k", [1, 40])
    @pytest.mark.parametrize("algorithm", ["nlj", *KDJ_ALGS])
    def test_kdj_engines(self, trees, kernels_backend, backend, algorithm, k):
        dmax = self.expected(k)[-1] if algorithm == "sjsort" else None
        with kernels_backend(backend):
            result = JoinRunner(*trees).kdj(k, algorithm, dmax)
        assert result.distances == self.expected(k)
        assert result.distances[0] == 1.414213562373095e155
        assert [p.ref_s for p in result.results] == list(range(1, k + 1))

    @pytest.mark.parametrize("k", [1, 40])
    def test_parallel_engine(self, trees, kernels_backend, backend, k):
        config = JoinConfig(parallel=1, parallel_mode="shm-serial")
        with kernels_backend(backend):
            result = parallel_kdj(*trees, k, config)
        assert result.distances == self.expected(k)

    def test_amidj_pull(self, trees, kernels_backend, backend):
        # About a thousand stages pass before the first result: the
        # stage targets must stop doubling at |R| x |S|.
        with kernels_backend(backend):
            with JoinRunner(*trees).idj("amidj") as stream:
                pairs = stream.next_batch(40)
        assert [p.distance for p in pairs] == self.expected(40)
