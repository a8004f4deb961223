"""Whole-join tests of the parallel engine through the public API.

``JoinConfig(parallel=N)`` / ``k_distance_join(..., parallel=N)`` send
AM-KDJ with N > 1 to the engine and run every other algorithm
sequentially; ``parallel_kdj`` runs the engine at any worker count.  The
engine's own mechanics (serialization, stealing, crash recovery, the
``nlj`` oracle at one and two workers) are tested in ``test_shm.py``;
``TestMerge`` keeps one check of the global bound that caps every
worker's sweep (the rest are in ``test_parallel_merge.py``).
"""

import math
import random

import pytest

from repro import JoinConfig, Rect, RTree, k_distance_join, parallel_kdj
from repro.parallel.merge import PairwiseBound

from tests.conftest import brute_force_distances, random_rects


def random_points(n: int, seed: int, span: float = 1000.0) -> list[tuple[Rect, int]]:
    """Point data: pair distances are distinct a.s., so top-k is unique."""
    rng = random.Random(seed)
    return [
        (Rect.from_point(rng.uniform(0, span), rng.uniform(0, span)), i)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def point_sets():
    return random_points(600, seed=5), random_points(500, seed=6)


@pytest.fixture(scope="module")
def point_trees(point_sets):
    items_r, items_s = point_sets
    return RTree.bulk_load(items_r, max_entries=16), RTree.bulk_load(
        items_s, max_entries=16
    )


def result_set(result) -> set[tuple[float, int, int]]:
    return {(p.distance, p.ref_r, p.ref_s) for p in result.results}


def pair_key(pair) -> tuple[float, int, int]:
    """The result order: distance, then both object ids."""
    return (pair.distance, pair.ref_r, pair.ref_s)


class TestMerge:
    def test_global_bound_cutoff(self):
        bound = PairwiseBound(3)
        assert math.isinf(bound.cutoff) and not bound.is_finite
        bound.offer_pairs([(5.0, 0, 0), (1.0, 1, 1)])
        assert math.isinf(bound.cutoff)
        bound.offer_pairs([(3.0, 2, 2), (9.0, 3, 3)])
        assert bound.cutoff == 5.0 and bound.is_finite
        bound.offer_pairs([(0.5, 4, 4)])
        assert bound.cutoff == 3.0


class TestParallelKDJ:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_identical_to_sequential_amkdj(self, point_trees, mode):
        tree_r, tree_s = point_trees
        sequential = k_distance_join(tree_r, tree_s, k=150)
        parallel = k_distance_join(
            tree_r,
            tree_s,
            k=150,
            config=JoinConfig(parallel=4, parallel_mode=f"shm-{mode}"),
        )
        assert result_set(parallel) == result_set(sequential)
        assert parallel.results == sorted(parallel.results, key=pair_key)
        assert parallel.stats.extra["parallel_mode"] == f"shm-{mode}"

    @pytest.mark.parametrize("k", [1, 7, 64, 400])
    def test_identical_across_k(self, point_trees, k):
        tree_r, tree_s = point_trees
        sequential = k_distance_join(tree_r, tree_s, k=k)
        parallel = k_distance_join(tree_r, tree_s, k=k, parallel=4)
        assert result_set(parallel) == result_set(sequential)
        assert parallel.stats.extra["parallel_workers"] == 4

    def test_matches_brute_force(self, point_trees, point_sets):
        tree_r, tree_s = point_trees
        expected = brute_force_distances(*point_sets, 80)
        parallel = k_distance_join(tree_r, tree_s, k=80, parallel=3)
        assert parallel.distances == pytest.approx(expected)

    def test_rect_data_same_distance_multiset(self, point_trees):
        """Extended rectangles (zero-distance ties): the distance lists
        must still agree even where the tied pair choice may not."""
        items_r = random_rects(300, seed=31)
        items_s = random_rects(280, seed=32)
        tree_r = RTree.bulk_load(items_r, max_entries=16)
        tree_s = RTree.bulk_load(items_s, max_entries=16)
        sequential = k_distance_join(tree_r, tree_s, k=200)
        parallel = k_distance_join(tree_r, tree_s, k=200, parallel=4)
        assert parallel.distances == pytest.approx(sequential.distances)

    def test_k_exceeding_pair_count_returns_all(self):
        tree_r = RTree.bulk_load(random_points(12, seed=1), max_entries=4)
        tree_s = RTree.bulk_load(random_points(11, seed=2), max_entries=4)
        # The widening loop must run out to the space diameter.
        result = parallel_kdj(
            tree_r,
            tree_s,
            k=1000,
            config=JoinConfig(parallel=2, parallel_mode="shm-serial"),
        )
        assert len(result) == 12 * 11
        distances = [p.distance for p in result.results]
        assert distances == sorted(distances)

    def test_multi_stage_widening_on_underestimate(self):
        """Clustered data breaks the Equation (3) estimate: the first
        sweep cap misses, the engine must widen and still be exact."""
        rng = random.Random(13)
        items_r = [
            (Rect.from_point(rng.uniform(0, 10), rng.uniform(0, 10)), i)
            for i in range(120)
        ]
        items_s = [
            (Rect.from_point(rng.uniform(800, 810), rng.uniform(0, 10)), i)
            for i in range(120)
        ]
        tree_r = RTree.bulk_load(items_r, max_entries=8)
        tree_s = RTree.bulk_load(items_s, max_entries=8)
        sequential = k_distance_join(tree_r, tree_s, k=60)
        parallel = k_distance_join(tree_r, tree_s, k=60, parallel=4)
        assert result_set(parallel) == result_set(sequential)
        assert parallel.stats.extra["parallel_stages"] >= 2

    def test_empty_side_returns_empty(self):
        tree_r = RTree.bulk_load(random_points(100, seed=3), max_entries=8)
        empty = RTree.bulk_load([], max_entries=8)
        for workers in (1, 4):
            config = JoinConfig(parallel=workers)
            assert len(parallel_kdj(tree_r, empty, k=5, config=config)) == 0
            assert len(parallel_kdj(empty, tree_r, k=5, config=config)) == 0

    def test_invalid_inputs(self, point_trees):
        with pytest.raises(ValueError):
            parallel_kdj(*point_trees, k=0, config=JoinConfig(parallel=2))
        assert JoinConfig().parallel_mode == "shm-process"
        # Only the engine's own three modes are accepted.
        for mode in ("fiber", "process", "thread", "serial"):
            with pytest.raises(ValueError, match="parallel_mode"):
                parallel_kdj(
                    *point_trees,
                    k=5,
                    config=JoinConfig(parallel=2, parallel_mode=mode),
                )

    def test_baseline_algorithm_workers(self, point_trees):
        # Only AM-KDJ has a parallel engine: the baselines ignore the
        # worker count, down to every Table-2 counter.
        tree_r, tree_s = point_trees
        for algorithm in ("hs", "bkdj", "sjsort", "nlj"):
            sequential = k_distance_join(tree_r, tree_s, k=50, algorithm=algorithm)
            parallel = k_distance_join(
                tree_r, tree_s, k=50, algorithm=algorithm, parallel=4
            )
            assert parallel.results == sequential.results, algorithm
            rows = [result.stats.as_row() for result in (sequential, parallel)]
            for row in rows:
                del row["wall_time"]
            assert rows[0] == rows[1], algorithm
            assert "parallel_workers" not in parallel.stats.extra

    def test_stats_aggregated_across_workers(self, point_trees):
        tree_r, tree_s = point_trees
        result = k_distance_join(tree_r, tree_s, k=100, parallel=4)
        stats = result.stats
        assert stats.results == 100
        assert stats.algorithm == "parallel-amkdj"
        assert stats.real_distance_computations > 0
        assert stats.node_accesses > 0
        assert stats.response_time > 0
        assert stats.extra["parallel_workers"] == 4
        assert stats.extra["parallel_frontier"] >= 1
        assert stats.extra["parallel_stages"] >= 1
        assert stats.extra["parallel_qdmax"] >= result.results[-1].distance

    def test_parallel_kwarg_equals_config_knob(self, point_trees):
        tree_r, tree_s = point_trees
        via_kwarg = k_distance_join(tree_r, tree_s, k=30, parallel=2)
        via_config = k_distance_join(
            tree_r, tree_s, k=30, config=JoinConfig(parallel=2)
        )
        assert result_set(via_kwarg) == result_set(via_config)
        assert via_kwarg.stats.extra["parallel_workers"] == 2
