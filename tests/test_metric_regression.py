"""Metric regression guards.

Deterministic dataset + deterministic engines means the paper's metrics
are exactly reproducible run to run.  These tests pin the *relationships*
(with generous headroom) so a future change that silently destroys a
pruning property — without breaking correctness — still fails CI.

The bounds are intentionally loose (2x-ish) around the currently measured
values; they assert orderings and magnitudes, not exact counts.
"""

import pytest

from repro.core.api import JoinConfig, JoinRunner
from repro.datagen.tiger import synthetic_tiger
from repro.rtree.tree import RTree


@pytest.fixture(scope="module")
def mini_setup():
    data = synthetic_tiger(n_streets=8_000, n_hydro=3_000, seed=2024)
    tree_r = RTree.bulk_load(data.streets)
    tree_s = RTree.bulk_load(data.hydro)
    runner = JoinRunner(tree_r, tree_s, JoinConfig(queue_memory=128 * 1024,
                                                   buffer_memory=128 * 1024))
    k = 3_000
    stats = {alg: runner.kdj(k, alg).stats for alg in ("hs", "bkdj", "amkdj")}
    return runner, stats, k


def test_bidirectional_prunes_distance_computations(mini_setup):
    _, stats, _ = mini_setup
    assert stats["bkdj"].real_distance_computations < (
        0.7 * stats["hs"].real_distance_computations
    )


def test_aggressive_pruning_beats_plain_bidirectional(mini_setup):
    _, stats, _ = mini_setup
    assert stats["amkdj"].real_distance_computations < (
        0.9 * stats["bkdj"].real_distance_computations
    )
    assert stats["amkdj"].queue_insertions < 0.9 * stats["bkdj"].queue_insertions


def test_unidirectional_node_access_blowup(mini_setup):
    _, stats, _ = mini_setup
    assert stats["hs"].node_accesses_unbuffered > (
        2 * stats["bkdj"].node_accesses_unbuffered
    )


def test_amkdj_within_factor_two_of_bkdj_worst_case(mini_setup):
    """Paper Section 5.6: compensation is bounded by 2x B-KDJ."""
    runner, stats, k = mini_setup
    dmax = runner.true_dmax(k)
    bad = JoinRunner(
        runner.tree_r, runner.tree_s,
        JoinConfig(queue_memory=128 * 1024, edmax=0.1 * dmax),
    ).kdj(k, "amkdj").stats
    assert bad.real_distance_computations < 2.0 * stats["bkdj"].real_distance_computations


def test_sweep_optimizations_save_work(mini_setup):
    runner, stats, k = mini_setup
    fixed = JoinRunner(
        runner.tree_r, runner.tree_s,
        JoinConfig(queue_memory=128 * 1024, optimize_axis=False,
                   optimize_direction=False),
    ).kdj(k, "bkdj").stats
    assert stats["bkdj"].total_distance_computations < (
        0.9 * fixed.total_distance_computations
    )


def test_queue_boundaries_prevent_splits(mini_setup):
    runner, stats, _ = mini_setup
    assert stats["bkdj"].queue_splits == 0  # Eq. 3 boundaries pre-placed


def test_as_row_reports_queue_and_adaptive_telemetry(mini_setup):
    """The regression row must expose the multi-stage machinery.

    A change that silently stops populating the Figure 13/14 fields
    (queue spill traffic, compensation, the initial estimate) would
    otherwise look like a perfect score.
    """
    _, stats, _ = mini_setup
    required = {
        "distance_queue_insertions", "queue_peak_size", "queue_splits",
        "queue_swap_ins", "queue_spilled_entries", "compensation_stages",
        "compensation_peak", "edmax_initial",
    }
    for alg in ("hs", "bkdj", "amkdj"):
        row = stats[alg].as_row()
        assert required <= set(row), f"{alg} row missing {required - set(row)}"
    amkdj = stats["amkdj"].as_row()
    # AM-KDJ always starts from an Equation (3) estimate...
    assert amkdj["edmax_initial"] > 0
    # ...while the non-adaptive engines never run compensation.
    assert stats["bkdj"].as_row()["compensation_stages"] == 0
    assert stats["hs"].as_row()["compensation_stages"] == 0
    for alg in ("hs", "bkdj", "amkdj"):
        assert stats[alg].as_row()["queue_peak_size"] > 0
        assert stats[alg].as_row()["distance_queue_insertions"] > 0


def test_response_time_ordering(mini_setup):
    """AM-KDJ never loses to B-KDJ on response time (paper Section 5.6).

    (The HS comparison is deliberately not asserted here: at this mini
    scale HS's entire working set fits the buffer, which flattens its
    node-access disadvantage — the full-scale benchmarks assert it.)
    """
    _, stats, _ = mini_setup
    assert stats["amkdj"].response_time <= 1.05 * stats["bkdj"].response_time


@pytest.fixture(scope="module")
def idj_stats(mini_setup):
    """Each IDJ stream's stats after 1,000 and after 3,000 pulls."""
    runner, _, _ = mini_setup
    stats = {}
    for alg in ("amidj", "hs"):
        with runner.idj(alg) as stream:
            stream.next_batch(1_000)
            first = stream.stats()
            stream.next_batch(2_000)
            stats[alg] = {1_000: first, 3_000: stream.stats()}
    return stats


@pytest.mark.parametrize("pulls", [1_000, 3_000])
def test_amidj_prunes_far_below_hs_idj(idj_stats, pulls):
    """Figure 12's AM-IDJ vs HS-IDJ relations past the distance-0 block.

    Measured at 0.039-0.058 (distance computations, queue insertions)
    and 0.41-0.53 (response time); the counts are the same under either
    main-queue tie order from 100 pulls on.  No pin at 10 pulls: there
    the tie order flips the relation.
    """
    am, hs = idj_stats["amidj"][pulls], idj_stats["hs"][pulls]
    assert am.real_distance_computations < 0.15 * hs.real_distance_computations
    assert am.queue_insertions < 0.15 * hs.queue_insertions
    assert am.response_time < 0.75 * hs.response_time
