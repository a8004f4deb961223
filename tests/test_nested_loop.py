"""Tests for the block nested-loop baseline."""

import math

import pytest

from repro.core import nested_loop
from repro.core.api import JoinConfig, JoinRunner
from repro.geometry.distances import min_distance
from repro.rtree.tree import RTree

from tests.conftest import (
    assert_distances_close,
    brute_force_distances,
    random_rects,
)


@pytest.fixture(scope="module")
def runner_and_items():
    items_r = random_rects(150, seed=81)
    items_s = random_rects(110, seed=82)
    runner = JoinRunner(
        RTree.bulk_load(items_r, max_entries=8),
        RTree.bulk_load(items_s, max_entries=8),
        JoinConfig(queue_memory=4 * 1024),
    )
    return runner, items_r, items_s


@pytest.mark.parametrize("k", [1, 13, 400, 5000])
def test_matches_brute_force(runner_and_items, k):
    runner, items_r, items_s = runner_and_items
    expected = brute_force_distances(items_r, items_s, k)
    result = runner.kdj(k, "nlj")
    assert_distances_close(result.distances, expected)


def test_k_beyond_all_pairs(runner_and_items):
    runner, items_r, items_s = runner_and_items
    total = len(items_r) * len(items_s)
    result = runner.kdj(total + 99, "nlj")
    assert len(result) == total


def test_distance_count_is_cartesian(runner_and_items):
    runner, items_r, items_s = runner_and_items
    stats = runner.kdj(10, "nlj").stats
    assert stats.real_distance_computations == len(items_r) * len(items_s)
    assert stats.extra["outer_passes"] >= 1


def test_cost_independent_of_k(runner_and_items):
    runner, *_ = runner_and_items
    small = runner.kdj(5, "nlj").stats
    large = runner.kdj(2000, "nlj").stats
    assert small.real_distance_computations == large.real_distance_computations


def test_empty_side():
    empty = RTree.bulk_load([])
    other = RTree.bulk_load(random_rects(10, seed=83))
    assert JoinRunner(empty, other).kdj(3, "nlj").results == []


def test_agreement_with_index_algorithms(runner_and_items):
    runner, *_ = runner_and_items
    nlj = runner.kdj(300, "nlj").distances
    amkdj = runner.kdj(300, "amkdj").distances
    assert all(math.isclose(a, b, abs_tol=1e-9) for a, b in zip(nlj, amkdj))


@pytest.mark.parametrize("k", [1, 13, 400, 5000])
def test_scan_without_numpy_matches_brute_force(runner_and_items, monkeypatch, k):
    # Without NumPy the same block scan runs the scalar distance and
    # keeps the k smallest by (distance, R position, S position), with
    # the same charges as the vectorized scan.
    runner, items_r, items_s = runner_and_items
    reference = runner.kdj(k, "nlj")
    monkeypatch.setattr(nested_loop, "_np", None)
    scalar = runner.kdj(k, "nlj")
    assert scalar.distances == brute_force_distances(items_r, items_s, k)
    leaves_r = list(runner.tree_r.iter_leaf_entries())
    leaves_s = list(runner.tree_s.iter_leaf_entries())
    keyed = sorted(
        (min_distance(a.rect, b.rect), i, j)
        for i, a in enumerate(leaves_r)
        for j, b in enumerate(leaves_s)
    )[:k]
    assert [(p.distance, p.ref_r, p.ref_s) for p in scalar.results] == [
        (d, leaves_r[i].ref, leaves_s[j].ref) for d, i, j in keyed
    ]
    want, got = reference.stats.as_row(), scalar.stats.as_row()
    del want["wall_time"], got["wall_time"]
    assert got == want
    assert scalar.stats.extra["outer_passes"] == reference.stats.extra["outer_passes"]
