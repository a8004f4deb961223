"""The run contract: every engine reports through one ``JoinRun``.

Under ``collect_metrics=True`` every k-distance join (the parallel
engine at one and two workers too), both incremental streams and both
join variants report the result-distance histogram and one
``obs.stage.<label>.*`` group per stage, and their stage deltas sum to
the run's counters.  Their traces nest (every ``B`` has its ``E``),
with empty inputs too, and the live plane is started once, under the
runner's algorithm name.
"""

import collections
import socket
import threading
from dataclasses import replace

import pytest

from repro import (
    JoinConfig,
    JoinRunner,
    RTree,
    all_nearest_neighbors,
    parallel_kdj,
    within_distance_join,
)
from repro.core.api import KDJ_ALGORITHMS
from repro.obs import load_trace, read_status
from repro.obs.live import JoinProgress
from repro.resilience.errors import JoinDeadlineExceeded
from repro.resilience.recovery import load_checkpoint

from tests.conftest import random_rects

#: ``obs.stage.<label>.<field>`` -> the ``JoinStats`` counter it sums to.
STAGE_FIELDS = {
    "dist_comps": "real_distance_computations",
    "axis_comps": "axis_distance_computations",
    "node_accesses": "node_accesses",
    "node_accesses_unbuffered": "node_accesses_unbuffered",
    "sim_time": "response_time",
}

#: The stages each run must report (AM-KDJ and AM-IDJ may add more).
STAGES = {
    "hs": {"traversal"},
    "bkdj": {"traversal"},
    "amkdj": {"aggressive"},
    "sjsort": {"traversal", "sort"},
    "nlj": {"scan"},
    "idj-hs": {"traversal"},
    "idj-amidj": {"1", "2"},
    "within": {"traversal"},
    "ann": {"search"},
    "parallel-1": {"parallel-1"},
    "parallel-2": {"parallel-1"},
}
RUNS = sorted(STAGES)

#: Every k-distance join: each algorithm, and AM-KDJ on the parallel
#: engine at one and two workers.
KDJ_KINDS = list(KDJ_ALGORITHMS) + ["parallel-1", "parallel-2"]


@pytest.fixture(scope="module")
def trees():
    return (
        RTree.bulk_load(random_rects(300, seed=61), max_entries=8),
        RTree.bulk_load(random_rects(200, seed=62), max_entries=8),
    )


@pytest.fixture(scope="module")
def empty():
    return RTree.bulk_load([])


def kdj(kind, tree_r, tree_s, k, config, **kwargs):
    """One k-distance join of ``kind`` (see :data:`KDJ_KINDS`)."""
    if kind.startswith("parallel-"):
        workers = int(kind[len("parallel-"):])
        return parallel_kdj(tree_r, tree_s, k, replace(config, parallel=workers))
    return JoinRunner(tree_r, tree_s, config).kdj(k, kind, **kwargs)


def run(kind, tree_r, tree_s, **config):
    """``(results, stats)`` of one run of ``kind`` (streams pull 150 pairs)."""
    # A small buffer makes the buffered and unbuffered node counts
    # differ; a tight first cutoff makes AM-IDJ advance stages.
    cfg = JoinConfig(buffer_memory=8 * 1024, edmax_schedule=(1.0,), **config)
    if kind == "within":
        result = within_distance_join(tree_r, tree_s, 20.0, cfg)
        return result.results, result.stats
    if kind == "ann":
        result = all_nearest_neighbors(tree_r, tree_s, cfg)
        return result.results, result.stats
    if kind.startswith("idj-"):
        stream = JoinRunner(tree_r, tree_s, cfg).idj(kind[len("idj-"):])
        results = stream.next_batch(150)
        stream.close()
        return results, stream.stats()
    result = kdj(kind, tree_r, tree_s, 60, cfg)
    return result.results, result.stats


def stage_deltas(extra):
    """``{label: {field: value}}`` from a stats record's extras."""
    stages = collections.defaultdict(dict)
    for key, value in extra.items():
        if key.startswith("obs.stage."):
            label, field = key[len("obs.stage."):].rsplit(".", 1)
            stages[label][field] = value
    return dict(stages)


@pytest.mark.parametrize("kind", RUNS)
def test_stage_deltas_sum_to_counters(trees, kind):
    results, stats = run(kind, *trees, collect_metrics=True)
    assert results
    assert stats.extra["obs.result_distance.count"] == len(results)
    stages = stage_deltas(stats.extra)
    assert STAGES[kind] <= set(stages)
    for label, deltas in stages.items():
        assert set(deltas) == set(STAGE_FIELDS), label
    for field, counter in STAGE_FIELDS.items():
        total = sum(deltas[field] for deltas in stages.values())
        if field == "sim_time":
            assert total == pytest.approx(stats.response_time, rel=1e-9, abs=1e-12)
        else:
            assert total == getattr(stats, counter), field


#: The runs that pop a main queue; the others never read one.
QUEUE_RUNS = {"hs", "bkdj", "amkdj", "idj-hs", "idj-amidj"}


@pytest.mark.parametrize("kind", RUNS)
def test_only_queue_runs_report_queue_depth(trees, tmp_path, kind):
    # A run that never reads its main queue builds none, so it reports
    # no depth histogram of an empty queue and creates no spill
    # directory.
    spill = tmp_path / "spill"
    _, stats = run(kind, *trees, collect_metrics=True, spill_dir=str(spill))
    depth = [key for key in stats.extra if key.startswith("obs.queue_depth.")]
    if kind in QUEUE_RUNS:
        assert stats.extra["obs.queue_depth.count"] > 0
    else:
        assert depth == []
    assert not spill.exists()


def balanced(records):
    """Every span that begins ends, in LIFO order."""
    open_spans = []
    for record in records:
        if record["ph"] == "B":
            open_spans.append(record["name"])
        elif record["ph"] == "E":
            assert open_spans and open_spans.pop() == record["name"], record
    return not open_spans


@pytest.mark.parametrize("kind", RUNS)
def test_trace_stages_match_metrics(trees, tmp_path, kind):
    path = tmp_path / "run.jsonl"
    _, stats = run(kind, *trees, trace_path=str(path))
    records = load_trace(path)
    assert balanced(records)
    spans = {r["name"] for r in records if r["ph"] == "B"}
    stages = {name[len("stage:"):] for name in spans if name.startswith("stage:")}
    assert stages == set(stage_deltas(stats.extra))
    assert sum(name.startswith("join:") for name in spans) == 1


@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("kind", RUNS)
def test_empty_side_writes_a_balanced_trace(trees, empty, tmp_path, kind, side):
    tree_r, tree_s = (empty, trees[1]) if side == "r" else (trees[0], empty)
    path = tmp_path / "empty.jsonl"
    results, stats = run(kind, tree_r, tree_s, trace_path=str(path))
    assert results == []
    assert stats.results == 0
    assert balanced(load_trace(path))


@pytest.mark.parametrize("algorithm", KDJ_KINDS)
def test_expired_deadline_still_writes_a_balanced_trace(trees, tmp_path, algorithm):
    path = tmp_path / "expired.jsonl"
    tree_r, tree_s = trees
    config = JoinConfig(trace_path=str(path), deadline_s=1e-9)
    with pytest.raises(JoinDeadlineExceeded):
        # An explicit dmax: SJ-SORT's oracle run would expire first.
        if algorithm == "sjsort":
            kdj(algorithm, tree_r, tree_s, 60, config, dmax=50.0)
        else:
            kdj(algorithm, tree_r, tree_s, 60, config)
    records = load_trace(path)
    assert any(r["name"] == "deadline_exceeded" for r in records)
    assert balanced(records)


@pytest.mark.parametrize("algorithm", KDJ_KINDS)
def test_live_plane_starts_once_under_the_runner_name(
    trees, tmp_path, monkeypatch, algorithm
):
    starts = []
    original = JoinProgress.start

    def counting(self, name, k):
        starts.append((name, k))
        original(self, name, k)

    monkeypatch.setattr(JoinProgress, "start", counting)
    path = tmp_path / "status.json"
    tree_r, tree_s = trees
    kdj(algorithm, tree_r, tree_s, 40, JoinConfig(status_path=str(path)))
    # The parallel engine answers AM-KDJ.  SJ-SORT's live count is its
    # candidate stream, so it starts with k = 0.
    name = "amkdj" if algorithm.startswith("parallel-") else algorithm
    assert starts == [(name, 0 if name == "sjsort" else 40)]
    progress = read_status(path)["progress"]
    assert progress["algorithm"] == name
    if name != "sjsort":
        assert progress["produced"] == 40


@pytest.mark.parametrize("algorithm", ["amkdj", "parallel-2"])
def test_a_plane_that_cannot_start_releases_the_run(trees, tmp_path, algorithm):
    # A taken metrics port fails the live plane's start inside
    # JoinRunner.open: the publisher thread, the spill directory and the
    # tracer it opened are released before the error leaves.
    spill = tmp_path / "spill"
    trace = tmp_path / "run.json"  # a Chrome trace is written on close
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        config = JoinConfig(
            metrics_port=taken.getsockname()[1],
            spill_dir=str(spill),
            trace_path=str(trace),
        )
        with pytest.raises(OSError):
            kdj(algorithm, *trees, 60, config)
    names = {thread.name for thread in threading.enumerate()}
    assert "repro-live-publisher" not in names
    assert not spill.exists()
    assert balanced(load_trace(trace))


@pytest.mark.parametrize("kind", RUNS)
def test_trace_holds_one_final_metrics_snapshot(trees, tmp_path, kind):
    # JoinContext.close() writes it, once, for every run that traces.
    path = tmp_path / "run.jsonl"
    run(kind, *trees, trace_path=str(path))
    records = load_trace(path)
    assert sum(r["name"] == "metrics:final" for r in records) == 1


def test_second_close_writes_no_second_snapshot(trees, tmp_path):
    path = tmp_path / "run.jsonl"
    runner = JoinRunner(*trees, JoinConfig(trace_path=str(path)))
    ctx, _ = runner.open("hs", 10)
    ctx.close()
    ctx.close()
    assert sum(r["name"] == "metrics:final" for r in load_trace(path)) == 1


@pytest.mark.parametrize("algorithm", ["hs", "bkdj", "amkdj"])
def test_resumed_stage_deltas_sum_to_merged_counters(trees, tmp_path, algorithm):
    # A checkpoint taken mid-stage carries that stage's deltas so far,
    # so the resumed run's merged stage deltas still sum to its counters.
    path = tmp_path / "join.ckpt"
    k = 60
    ref = run(algorithm, *trees, collect_metrics=True)[1]
    _, checkpointed = run(algorithm, *trees, checkpoint_path=str(path),
                          checkpoint_every_pairs=25, collect_metrics=True)
    assert 0 < load_checkpoint(path)["watermark"] < k
    # Capturing moves nothing in the uninterrupted run's registry.
    assert stage_deltas(checkpointed.extra) == stage_deltas(ref.extra)
    results, stats = run(algorithm, *trees, resume_from=str(path), collect_metrics=True)
    assert len(results) == k
    stages = stage_deltas(stats.extra)
    for field, counter in STAGE_FIELDS.items():
        total = sum(deltas.get(field, 0.0) for deltas in stages.values())
        if field == "sim_time":
            assert total == pytest.approx(stats.response_time, rel=1e-9)
        else:
            assert total == getattr(stats, counter) == getattr(ref, counter), field
    # The resumed run reports the uninterrupted run's stages.
    assert stages.keys() == stage_deltas(ref.extra).keys()
