"""Tests for the parallel partitioned join engine."""

import math
import random

import pytest

from repro import JoinConfig, Rect, RTree, k_distance_join
from repro.core.pairs import ResultPair
from repro.geometry.distances import min_distance
from repro.parallel.engine import parallel_incremental_join, parallel_kdj
from repro.parallel.merge import GlobalBound, merge_topk, pair_key
from repro.parallel.partition import (
    assign_s_items,
    build_partitions,
    gather_items,
    tile_boundaries,
)
from repro.resilience import StaleStreamError

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


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


class TestPartitioning:
    def test_boundaries_strictly_increasing(self, point_trees):
        tree_r, tree_s = point_trees
        for tiles in (2, 4, 8, 16):
            bounds = tile_boundaries(tree_r, tree_s, tiles)
            assert len(bounds) <= tiles - 1
            assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_single_tile_no_boundaries(self, point_trees):
        assert tile_boundaries(*point_trees, 1) == []

    def test_r_objects_covered_exactly_once(self, point_trees):
        tree_r, tree_s = point_trees
        partitions = build_partitions(tree_r, tile_boundaries(tree_r, tree_s, 8))
        refs = [item[4] for p in partitions for item in p.r_items]
        assert sorted(refs) == sorted(item[4] for item in gather_items(tree_r))
        assert len(refs) == len(set(refs))

    def test_centers_respect_half_open_strips(self, point_trees):
        tree_r, tree_s = point_trees
        boundaries = tile_boundaries(tree_r, tree_s, 8)
        for partition in build_partitions(tree_r, boundaries):
            for x0, _, x1, _, _ in partition.r_items:
                cx = (x0 + x1) / 2.0
                assert partition.lo <= cx < partition.hi

    def test_s_replication_is_complete_within_delta(self, point_trees, point_sets):
        """Any S object within ``delta`` of an R object must be assigned
        to that R object's partition — the boundary-strip guarantee."""
        tree_r, tree_s = point_trees
        items_r, items_s = point_sets
        rect_r = dict((i, rect) for rect, i in items_r)
        rect_s = dict((i, rect) for rect, i in items_s)
        delta = 40.0
        partitions = build_partitions(tree_r, tile_boundaries(tree_r, tree_s, 8))
        assigned = assign_s_items(partitions, gather_items(tree_s), delta)
        for partition, s_items in zip(partitions, assigned):
            present = {item[4] for item in s_items}
            for _, _, _, _, ref_r in partition.r_items:
                for ref_s, rs in rect_s.items():
                    if min_distance(rect_r[ref_r], rs) <= delta:
                        assert ref_s in present

    def test_empty_strips_dropped_and_reindexed(self):
        items = random_points(100, seed=9, span=10.0)  # all centers < 10
        tree = RTree.bulk_load(items, max_entries=8)
        partitions = build_partitions(tree, [500.0, 900.0])
        assert [p.index for p in partitions] == list(range(len(partitions)))
        assert sum(len(p.r_items) for p in partitions) == 100


class TestTreeExtractionHooks:
    def test_top_level_entries_reach_min_count(self, point_trees):
        tree_r, _ = point_trees
        entries, child_level = tree_r.top_level_entries(min_count=8)
        assert len(entries) >= 8
        assert child_level >= -1

    def test_top_level_entries_bad_count(self, point_trees):
        with pytest.raises(ValueError):
            point_trees[0].top_level_entries(min_count=0)

    def test_subtree_leaf_entries_partition_the_data(self, point_trees):
        tree_r, _ = point_trees
        entries, child_level = tree_r.top_level_entries(min_count=4)
        assert child_level >= 0  # 600 points never fit one leaf
        refs: list[int] = []
        for entry in entries:
            refs.extend(e.ref for e in tree_r.subtree_leaf_entries(entry.ref, child_level))
        assert sorted(refs) == sorted(e.ref for e in tree_r.iter_leaf_entries())

    def test_subtree_leaf_entries_rejects_objects(self, point_trees):
        with pytest.raises(ValueError):
            list(point_trees[0].subtree_leaf_entries(0, -1))


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------


class TestMerge:
    def test_merge_topk_matches_global_sort(self):
        rng = random.Random(3)
        pairs = [
            ResultPair(rng.uniform(0, 100), i, rng.randrange(1000))
            for i in range(300)
        ]
        runs = [sorted(pairs[i::5], key=pair_key) for i in range(5)]
        assert merge_topk(runs, 40) == sorted(pairs, key=pair_key)[:40]

    def test_merge_deterministic_under_distance_ties(self):
        tied = [ResultPair(1.0, r, s) for r in range(4) for s in range(4)]
        runs = [sorted(tied[i::3], key=pair_key) for i in range(3)]
        assert merge_topk(runs, 7) == sorted(tied, key=pair_key)[:7]

    def test_global_bound_cutoff(self):
        bound = GlobalBound(3)
        assert math.isinf(bound.cutoff) and not bound.is_finite
        bound.offer([5.0, 1.0])
        assert math.isinf(bound.cutoff)
        bound.offer([3.0, 9.0])
        assert bound.cutoff == 5.0 and bound.is_finite
        bound.offer([0.5])
        assert bound.cutoff == 3.0


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class TestParallelKDJ:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_identical_to_sequential_amkdj(self, point_trees, mode):
        tree_r, tree_s = point_trees
        sequential = k_distance_join(tree_r, tree_s, k=150)
        parallel = k_distance_join(
            tree_r,
            tree_s,
            k=150,
            config=JoinConfig(parallel=4, parallel_mode=mode),
        )
        assert result_set(parallel) == result_set(sequential)
        assert parallel.results == sorted(parallel.results, key=pair_key)

    @pytest.mark.parametrize("k", [1, 7, 64, 400])
    def test_identical_across_k(self, point_trees, k):
        tree_r, tree_s = point_trees
        sequential = k_distance_join(tree_r, tree_s, k=k)
        parallel = k_distance_join(tree_r, tree_s, k=k, parallel=4)
        assert result_set(parallel) == result_set(sequential)

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
        # Below MIN_PARALLEL_OBJECTS this would fall back; call the
        # engine directly to exercise the widening loop to delta_max.
        result = parallel_kdj(
            tree_r,
            tree_s,
            k=1000,
            config=JoinConfig(parallel=2, parallel_mode="serial"),
        )
        assert len(result) == 12 * 11
        distances = [p.distance for p in result.results]
        assert distances == sorted(distances)

    def test_multi_stage_widening_on_underestimate(self):
        """Clustered data breaks the Equation (3) estimate: the first
        strip width misses, the engine must widen and still be exact."""
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

    def test_small_input_falls_back_to_sequential(self):
        tree_r = RTree.bulk_load(random_points(20, seed=3), max_entries=4)
        tree_s = RTree.bulk_load(random_points(20, seed=4), max_entries=4)
        result = k_distance_join(tree_r, tree_s, k=5, parallel=4)
        assert result.stats.extra.get("parallel_fallback") is True

    def test_empty_side_returns_empty(self):
        tree_r = RTree.bulk_load(random_points(100, seed=3), max_entries=8)
        empty = RTree.bulk_load([], max_entries=8)
        result = parallel_kdj(tree_r, empty, k=5, config=JoinConfig(parallel=4))
        assert len(result) == 0

    def test_invalid_inputs(self, point_trees):
        with pytest.raises(ValueError):
            parallel_kdj(*point_trees, k=0, config=JoinConfig(parallel=2))
        with pytest.raises(ValueError):
            parallel_kdj(
                *point_trees,
                k=5,
                config=JoinConfig(parallel=2, parallel_mode="fiber"),
            )

    def test_baseline_algorithm_workers(self, point_trees):
        tree_r, tree_s = point_trees
        sequential = k_distance_join(tree_r, tree_s, k=50, algorithm="bkdj")
        parallel = k_distance_join(
            tree_r,
            tree_s,
            k=50,
            algorithm="bkdj",
            config=JoinConfig(parallel=3, parallel_mode="serial"),
        )
        assert result_set(parallel) == result_set(sequential)

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
        assert stats.extra["parallel_partitions"] >= 2
        assert stats.extra["parallel_stages"] >= 1
        assert stats.extra["parallel_qdmax"] >= result.results[-1].distance

    def test_parallel_kwarg_equals_config_knob(self, point_trees):
        tree_r, tree_s = point_trees
        via_kwarg = k_distance_join(tree_r, tree_s, k=30, parallel=2)
        via_config = k_distance_join(
            tree_r, tree_s, k=30, config=JoinConfig(parallel=2)
        )
        assert result_set(via_kwarg) == result_set(via_config)


class TestParallelIncremental:
    def test_batches_follow_merged_order(self, point_trees):
        tree_r, tree_s = point_trees
        sequential = k_distance_join(tree_r, tree_s, k=120)
        config = JoinConfig(parallel=2, parallel_mode="serial", initial_k=40)
        with parallel_incremental_join(tree_r, tree_s, config) as stream:
            got = stream.next_batch(50) + stream.next_batch(50) + stream.next_batch(20)
        assert [p.distance for p in got] == pytest.approx(sequential.distances)
        assert got == sorted(got, key=pair_key)

    def test_exhaustion_stops_cleanly(self):
        tree_r = RTree.bulk_load(random_points(70, seed=8), max_entries=8)
        tree_s = RTree.bulk_load(random_points(70, seed=9), max_entries=8)
        config = JoinConfig(parallel=2, parallel_mode="serial", initial_k=1000)
        stream = parallel_incremental_join(tree_r, tree_s, config)
        results = list(stream)
        assert len(results) == 70 * 70
        assert stream.next_batch(10) == []
        stats = stream.stats()
        assert stats.results == 70 * 70

    def test_stream_refuses_to_serve_after_a_delete(self):
        # A later stage would re-run on the written trees and skip the
        # prefix already yielded, which no longer lines up with it: the
        # stream would serve pairs naming deleted objects.
        items_s = random_points(3000, seed=12)
        tree_r = RTree.bulk_load(random_points(3000, seed=11))
        tree_s = RTree.bulk_load(items_s)
        config = JoinConfig(parallel=2, parallel_mode="serial")
        stream = parallel_incremental_join(tree_r, tree_s, config)
        assert len(stream.next_batch(50)) == 50
        for rect, oid in items_s[:500]:
            assert tree_s.delete(rect, oid)
        with pytest.raises(StaleStreamError):
            stream.next_batch(2000)
        assert stream.next_batch(10) == []

    def test_iterating_stream_refuses_after_an_insert_into_r(self):
        tree_r = RTree.bulk_load(random_points(300, seed=13), max_entries=8)
        tree_s = RTree.bulk_load(random_points(300, seed=14), max_entries=8)
        config = JoinConfig(parallel=2, parallel_mode="serial", initial_k=40)
        with parallel_incremental_join(tree_r, tree_s, config) as stream:
            pairs = iter(stream)
            for _ in range(5):
                next(pairs)
            tree_r.insert(Rect.from_point(500.0, 500.0), 10_000)
            with pytest.raises(StaleStreamError):
                next(pairs)
