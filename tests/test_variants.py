"""Tests for the epsilon join and all-nearest-neighbors variants."""

import math

import pytest

from repro import RTree, all_nearest_neighbors, within_distance_join
from repro.core.api import JoinConfig, JoinRunner
from repro.geometry.distances import min_distance
from repro.resilience import JoinDeadlineExceeded, load_checkpoint

from tests.conftest import brute_force_within, random_rects


@pytest.fixture(scope="module")
def datasets():
    items_r = random_rects(120, seed=201)
    items_s = random_rects(90, seed=202)
    return (
        items_r,
        items_s,
        RTree.bulk_load(items_r, max_entries=8),
        RTree.bulk_load(items_s, max_entries=8),
    )


class TestWithinDistanceJoin:
    @pytest.mark.parametrize("dmax", [0.0, 15.0, 80.0])
    def test_matches_brute_force(self, datasets, dmax):
        items_r, items_s, tree_r, tree_s = datasets
        result = within_distance_join(tree_r, tree_s, dmax)
        got = {(p.ref_r, p.ref_s) for p in result.results}
        assert got == brute_force_within(items_r, items_s, dmax)

    def test_distance_order(self, datasets):
        *_, tree_r, tree_s = datasets
        result = within_distance_join(tree_r, tree_s, 40.0, order="distance")
        distances = result.distances
        assert distances == sorted(distances)

    def test_negative_dmax_rejected(self, datasets):
        *_, tree_r, tree_s = datasets
        with pytest.raises(ValueError):
            within_distance_join(tree_r, tree_s, -1.0)

    @pytest.mark.parametrize("dmax", [math.nan, -5.0])
    def test_nan_or_negative_dmax_rejected_by_both_entry_points(self, datasets, dmax):
        # NaN fails every comparison, so a ``dmax < 0`` check lets it through.
        *_, tree_r, tree_s = datasets
        with pytest.raises(ValueError, match="dmax must be non-negative"):
            within_distance_join(tree_r, tree_s, dmax)
        with pytest.raises(ValueError, match="dmax must be non-negative"):
            JoinRunner(tree_r, tree_s).kdj(10, "sjsort", dmax)

    def test_bad_order_rejected(self, datasets):
        *_, tree_r, tree_s = datasets
        with pytest.raises(ValueError):
            within_distance_join(tree_r, tree_s, 1.0, order="fancy")

    def test_checkpoints_replay(self, datasets, tmp_path):
        # SJ-SORT's semantics: a replay checkpoint, and a resume re-runs
        # the join from scratch.
        *_, tree_r, tree_s = datasets
        path = tmp_path / "within.ckpt"
        ref = within_distance_join(tree_r, tree_s, 40.0)
        config = JoinConfig(checkpoint_path=str(path), checkpoint_every_s=0.0)
        assert within_distance_join(tree_r, tree_s, 40.0, config).results == ref.results
        assert load_checkpoint(path)["mode"] == "replay"
        resumed = within_distance_join(
            tree_r, tree_s, 40.0, JoinConfig(resume_from=str(path))
        )
        assert resumed.results == ref.results

    def test_stats_populated(self, datasets):
        *_, tree_r, tree_s = datasets
        stats = within_distance_join(tree_r, tree_s, 30.0).stats
        assert stats.algorithm == "within-join"
        assert stats.real_distance_computations > 0
        assert stats.extra["dmax"] == 30.0


class TestAllNearestNeighbors:
    def test_matches_brute_force(self, datasets):
        items_r, items_s, tree_r, tree_s = datasets
        result = all_nearest_neighbors(tree_r, tree_s)
        assert len(result) == len(items_r)
        by_r = {p.ref_r: p for p in result.results}
        for rect, oid in items_r:
            best = min(min_distance(rect, s_rect) for s_rect, _ in items_s)
            assert math.isclose(by_r[oid].distance, best, abs_tol=1e-9)

    def test_result_pairs_are_actual_neighbors(self, datasets):
        items_r, items_s, tree_r, tree_s = datasets
        rect_s = dict((oid, rect) for rect, oid in items_s)
        rect_r = dict((oid, rect) for rect, oid in items_r)
        for pair in all_nearest_neighbors(tree_r, tree_s).results:
            d = min_distance(rect_r[pair.ref_r], rect_s[pair.ref_s])
            assert math.isclose(d, pair.distance, abs_tol=1e-9)

    def test_ordered_by_r_id(self, datasets):
        *_, tree_r, tree_s = datasets
        refs = [p.ref_r for p in all_nearest_neighbors(tree_r, tree_s).results]
        assert refs == sorted(refs)

    def test_empty_sides(self):
        empty = RTree.bulk_load([])
        other = RTree.bulk_load(random_rects(5, seed=203))
        assert all_nearest_neighbors(empty, other).results == []
        assert all_nearest_neighbors(other, empty).results == []

    def test_node_accesses_metered(self, datasets):
        *_, tree_r, tree_s = datasets
        stats = all_nearest_neighbors(
            tree_r, tree_s, JoinConfig(buffer_memory=16 * 1024)
        ).stats
        assert stats.node_accesses > 0
        assert stats.node_accesses_unbuffered >= stats.node_accesses

    def test_tiny_deadline_raises(self, datasets):
        *_, tree_r, tree_s = datasets
        with pytest.raises(JoinDeadlineExceeded):
            all_nearest_neighbors(tree_r, tree_s, JoinConfig(deadline_s=1e-9))

    def test_unexpired_deadline_changes_nothing(self, datasets):
        *_, tree_r, tree_s = datasets
        plain = all_nearest_neighbors(tree_r, tree_s)
        timed = all_nearest_neighbors(tree_r, tree_s, JoinConfig(deadline_s=3600.0))
        assert timed.results == plain.results
        row, timed_row = plain.stats.as_row(), timed.stats.as_row()
        del row["wall_time"], timed_row["wall_time"]
        assert timed_row == row
