"""Tests for the public API surface."""

import math

import pytest

from repro import (
    JoinConfig,
    JoinRunner,
    RTree,
    Rect,
    incremental_distance_join,
    k_distance_join,
    parallel_kdj,
)
from repro.core.api import KDJ_ALGORITHMS, k_self_distance_join

from tests.conftest import brute_force_distances, random_rects


@pytest.fixture(scope="module")
def trees():
    items_r = random_rects(80, seed=31)
    items_s = random_rects(60, seed=32)
    return (
        RTree.bulk_load(items_r, max_entries=8),
        RTree.bulk_load(items_s, max_entries=8),
        items_r,
        items_s,
    )


class TestConvenienceFunctions:
    def test_k_distance_join_default_algorithm(self, trees):
        tree_r, tree_s, items_r, items_s = trees
        result = k_distance_join(tree_r, tree_s, k=10)
        expected = brute_force_distances(items_r, items_s, 10)
        assert result.stats.algorithm == "amkdj"
        assert [round(d, 9) for d in result.distances] == [
            round(d, 9) for d in expected
        ]

    def test_k_distance_join_every_algorithm(self, trees):
        tree_r, tree_s, *_ = trees
        for algorithm in ("hs", "bkdj", "amkdj", "sjsort"):
            assert len(k_distance_join(tree_r, tree_s, 5, algorithm)) == 5

    def test_incremental_default(self, trees):
        tree_r, tree_s, items_r, items_s = trees
        stream = incremental_distance_join(tree_r, tree_s)
        batch = stream.next_batch(20)
        expected = brute_force_distances(items_r, items_s, 20)
        assert [round(p.distance, 9) for p in batch] == [
            round(d, 9) for d in expected
        ]

    def test_unknown_algorithms_rejected(self, trees):
        tree_r, tree_s, *_ = trees
        runner = JoinRunner(tree_r, tree_s)
        with pytest.raises(ValueError, match="unknown KDJ"):
            runner.kdj(5, "nope")
        with pytest.raises(ValueError, match="unknown IDJ"):
            runner.idj("nope")


#: Not a positive integer: fractional, NaN, integral float, bool.
BAD_KS = [2.5, math.nan, 10.0, True, 0, -3]


class TestKMustBeAPositiveInteger:
    """Every public k-query rejects a k that is not a positive integer
    before any engine reads it (the engines used to disagree on 2.5 and
    NaN)."""

    @pytest.mark.parametrize("k", BAD_KS, ids=repr)
    @pytest.mark.parametrize("algorithm", KDJ_ALGORITHMS)
    def test_kdj(self, trees, algorithm, k):
        tree_r, tree_s, *_ = trees
        with pytest.raises(ValueError, match="positive integer"):
            JoinRunner(tree_r, tree_s).kdj(k, algorithm)

    @pytest.mark.parametrize("k", BAD_KS, ids=repr)
    def test_parallel_kdj(self, trees, k):
        tree_r, tree_s, *_ = trees
        config = JoinConfig(parallel=2)
        runner = JoinRunner(tree_r, tree_s, config)
        with pytest.raises(ValueError, match="positive integer"):
            runner.kdj(k, "amkdj")
        # The engine checks k itself when called directly, at any
        # worker count.
        for workers in (1, 2):
            config = JoinConfig(parallel=workers)
            with pytest.raises(ValueError, match="positive integer"):
                parallel_kdj(tree_r, tree_s, k, config)

    @pytest.mark.parametrize("k", BAD_KS, ids=repr)
    def test_self_join_and_nearest(self, trees, k):
        tree_r, *_ = trees
        with pytest.raises(ValueError, match="positive integer"):
            k_self_distance_join(tree_r, k)
        with pytest.raises(ValueError, match="positive integer"):
            tree_r.nearest(500.0, 500.0, k)

    def test_numpy_integers_are_accepted(self, trees):
        np = pytest.importorskip("numpy")
        tree_r, tree_s, *_ = trees
        assert len(JoinRunner(tree_r, tree_s).kdj(np.int64(3), "bkdj")) == 3
        assert len(k_self_distance_join(tree_r, np.int32(2))) == 2
        assert len(tree_r.nearest(500.0, 500.0, np.int64(4))) == 4


class TestJoinResult:
    def test_len_iter_distances(self, trees):
        tree_r, tree_s, *_ = trees
        result = k_distance_join(tree_r, tree_s, 7, "bkdj")
        assert len(result) == 7
        assert [p.distance for p in result] == result.distances


class TestStatsFields:
    def test_kdj_stats_populated(self, trees):
        tree_r, tree_s, *_ = trees
        stats = k_distance_join(tree_r, tree_s, 25, "amkdj").stats
        assert stats.algorithm == "amkdj"
        assert stats.k == 25 and stats.results == 25
        assert stats.real_distance_computations > 0
        assert stats.queue_insertions > 0
        assert stats.node_accesses > 0
        assert stats.node_accesses_unbuffered >= stats.node_accesses
        assert stats.response_time > 0
        assert stats.wall_time > 0
        assert math.isclose(
            stats.response_time, stats.io_time + stats.cpu_time, rel_tol=1e-9
        )
        assert stats.edmax_initial > 0

    def test_stats_as_row(self, trees):
        tree_r, tree_s, *_ = trees
        row = k_distance_join(tree_r, tree_s, 5, "bkdj").stats.as_row()
        assert row["algorithm"] == "bkdj"
        assert row["k"] == 5

    def test_total_distance_computations(self, trees):
        tree_r, tree_s, *_ = trees
        stats = k_distance_join(tree_r, tree_s, 5, "bkdj").stats
        assert (
            stats.total_distance_computations
            == stats.real_distance_computations + stats.axis_distance_computations
        )

    def test_idj_stats_snapshot_progresses(self, trees):
        tree_r, tree_s, *_ = trees
        stream = incremental_distance_join(tree_r, tree_s, "amidj")
        stream.next_batch(10)
        first = stream.stats().response_time
        stream.next_batch(200)
        assert stream.stats().response_time >= first

    def test_sjsort_reports_dmax(self, trees):
        tree_r, tree_s, *_ = trees
        stats = k_distance_join(tree_r, tree_s, 10, "sjsort").stats
        assert "dmax" in stats.extra
        assert "sort_candidates" in stats.extra


class TestConfigPlumbing:
    def test_runs_are_isolated(self, trees):
        tree_r, tree_s, *_ = trees
        runner = JoinRunner(tree_r, tree_s)
        first = runner.kdj(10, "bkdj").stats
        second = runner.kdj(10, "bkdj").stats
        assert first.real_distance_computations == second.real_distance_computations
        assert first.queue_insertions == second.queue_insertions

    def test_memory_config_changes_behavior(self, trees):
        tree_r, tree_s, *_ = trees
        tiny = JoinRunner(
            tree_r, tree_s, JoinConfig(queue_memory=1024, buffer_memory=8192)
        ).kdj(300, "bkdj").stats
        big = JoinRunner(
            tree_r, tree_s,
            JoinConfig(queue_memory=1024 * 1024, buffer_memory=1024 * 1024),
        ).kdj(300, "bkdj").stats
        assert tiny.queue_splits + tiny.queue_swap_ins > 0
        assert big.queue_splits == 0
        assert big.response_time < tiny.response_time

    def test_true_dmax_matches_kth_distance(self, trees):
        tree_r, tree_s, items_r, items_s = trees
        runner = JoinRunner(tree_r, tree_s)
        expected = brute_force_distances(items_r, items_s, 40)[-1]
        assert math.isclose(runner.true_dmax(40), expected, abs_tol=1e-9)

    def test_no_option_sets_a_pop_width(self, trees, tmp_path, capsys):
        # Every best-first engine pops one head per iteration; no field,
        # option or flag picks a width.
        from repro.__main__ import main
        from repro.core.base import EngineOptions

        with pytest.raises(TypeError):
            JoinConfig(batch_size=1)
        with pytest.raises(TypeError):
            EngineOptions(batch_size=1)
        tree_r, tree_s, *_ = trees
        paths = [str(tmp_path / "r.rt"), str(tmp_path / "s.rt")]
        tree_r.save(paths[0])
        tree_s.save(paths[1])
        assert main(["join", *paths, "-k", "3", "--show", "0"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["join", *paths, "-k", "3", "--batch-size", "4"])
        assert excinfo.value.code == 2
        assert "--batch-size" in capsys.readouterr().err
