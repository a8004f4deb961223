"""Durable checkpoint/resume and graceful shutdown.

The load-bearing property is *equivalence*: a run that checkpoints —
or is killed and resumed — must produce the byte-identical result
stream and (for exact-state engines) the same paper counters as an
uninterrupted run.  The corruption tests pin the typed-error surface of
the recovery path: a damaged checkpoint never yields garbage results.
"""

import multiprocessing
import os
import pickle
import random
import signal
import threading
import zlib
from dataclasses import replace

import pytest

from repro import (
    JoinConfig,
    JoinRunner,
    Rect,
    RTree,
    all_nearest_neighbors,
    parallel_kdj,
    within_distance_join,
)
from repro.core import planesweep
from repro.obs import load_trace
from repro.queues.main_queue import MainQueue
from repro.resilience.checkpoint import (
    CheckpointManager,
    FORMAT_VERSION,
    MAGIC,
    join_fingerprint,
)
from repro.resilience.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    JoinDeadlineExceeded,
    JoinInterrupted,
    SpillCorruptionError,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import load_checkpoint, validate_checkpoint
from repro.storage.disk import SimulatedDisk

from tests.test_join_run import STAGE_FIELDS, balanced, stage_deltas

EXACT_KDJ = ["hs", "bkdj", "amkdj"]
REPLAY_KDJ = ["sjsort", "nlj"]


def random_points(n: int, seed: int, span: float = 1000.0, x0: float = 0.0):
    rng = random.Random(seed)
    return [
        (Rect.from_point(x0 + rng.uniform(0, span), rng.uniform(0, span)), i)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def point_trees():
    return (
        RTree.bulk_load(random_points(400, seed=41), max_entries=16),
        RTree.bulk_load(random_points(300, seed=42), max_entries=16),
    )


@pytest.fixture(autouse=True)
def clear_shutdown_latch():
    # The shutdown latch is class-level on purpose (a signal must stop
    # joins started later in the same process); tests must not leak it.
    CheckpointManager.reset_shutdown()
    yield
    CheckpointManager.reset_shutdown()


def stream(result):
    return [(p.distance, p.ref_r, p.ref_s) for p in result.results]


def assert_rows_match(ref_row, row, *, skip=("wall_time",)):
    assert set(ref_row) == set(row)
    for key, expected in ref_row.items():
        if key in skip:
            continue
        if isinstance(expected, float):
            # Prefix-merge reorders float summation; integers are exact.
            assert row[key] == pytest.approx(expected, rel=1e-9), key
        else:
            assert row[key] == expected, key


def run(trees, algorithm, k=60, **cfg):
    tree_r, tree_s = trees
    return JoinRunner(tree_r, tree_s, JoinConfig(**cfg)).kdj(k, algorithm)


# ----------------------------------------------------------------------
# Invariance: checkpointing off allocates nothing, on changes nothing
# ----------------------------------------------------------------------


def test_from_config_returns_none_when_unset():
    assert (
        CheckpointManager.from_config(
            JoinConfig(), algorithm="amkdj", k=5, fingerprint={}
        )
        is None
    )


def test_open_checkpoint_is_noop_without_config(point_trees):
    tree_r, tree_s = point_trees
    ctx, payload = JoinRunner(tree_r, tree_s, JoinConfig()).open("amkdj", 5)
    ctx.close()
    assert ctx.checkpoint is None
    assert payload is None


@pytest.mark.parametrize("algorithm", EXACT_KDJ + REPLAY_KDJ)
def test_checkpointing_does_not_perturb_run(point_trees, tmp_path, algorithm):
    ref = run(point_trees, algorithm)
    ckpt = run(
        point_trees,
        algorithm,
        checkpoint_path=str(tmp_path / "join.ckpt"),
        checkpoint_every_pairs=5,
    )
    assert stream(ckpt) == stream(ref)
    assert_rows_match(ref.stats.as_row(), ckpt.stats.as_row())
    # Atomic-publish protocol: no temp file survives the run.
    assert not (tmp_path / "join.ckpt.tmp").exists()


# ----------------------------------------------------------------------
# Resume equivalence: periodic checkpoint, then continue
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", EXACT_KDJ)
def test_resume_from_periodic_checkpoint_is_exact(
    point_trees, tmp_path, algorithm
):
    path = tmp_path / "join.ckpt"
    ref = run(point_trees, algorithm)
    run(
        point_trees,
        algorithm,
        checkpoint_path=str(path),
        checkpoint_every_pairs=7,
    )
    payload = load_checkpoint(path)
    assert payload["mode"] == "exact"
    assert 0 < payload["watermark"] < len(ref.results)
    resumed = run(point_trees, algorithm, resume_from=str(path))
    assert stream(resumed) == stream(ref)
    # Counter continuity: prefix + remainder equals the uninterrupted
    # run exactly — node accesses (warmed buffers), queue work, the lot.
    assert_rows_match(ref.stats.as_row(), resumed.stats.as_row())


@pytest.mark.parametrize("algorithm", REPLAY_KDJ)
def test_replay_engines_resume_by_rerunning(point_trees, tmp_path, algorithm):
    path = tmp_path / "join.ckpt"
    ref = run(point_trees, algorithm)
    # Zero-second cadence: NLJ emits no pairs until its final sort, so
    # only the time cadence can make its per-block barrier capture.
    run(
        point_trees,
        algorithm,
        checkpoint_path=str(path),
        checkpoint_every_s=0.0,
    )
    assert load_checkpoint(path)["mode"] == "replay"
    resumed = run(point_trees, algorithm, resume_from=str(path))
    assert stream(resumed) == stream(ref)


# ----------------------------------------------------------------------
# Format: what each exact engine's checkpoint holds (format 3)
# ----------------------------------------------------------------------

PAYLOAD_KEYS = {
    "format", "algorithm", "k", "fingerprint", "watermark", "checkpoints",
    "wall_s", "mode", "engine", "stats",
}
AMKDJ_KEYS = {"stage", "results", "queue", "dq", "comp", "initial_edmax", "buffers"}
HS_KEYS = {"queue", "dq", "produced", "results", "buffers"}
ENGINE_KEYS = {
    "hs-kdj": HS_KEYS,
    "hs-idj": HS_KEYS,
    "bkdj": {"results", "queue", "dq", "buffers"},
    "amidj": {
        "queue", "records", "schedule", "target_k", "edmax", "produced",
        "last_distance", "buffers", "state",
    },
    "amkdj-1": AMKDJ_KEYS | {
        "edmax_value", "min_unsafe_cutoff", "next_milestone", "estimate_active",
    },
    "amkdj-2": AMKDJ_KEYS,
}


def test_exact_checkpoint_format_is_pinned(point_trees, tmp_path, monkeypatch):
    captured = []
    capture = CheckpointManager.capture

    def recording(self, body):
        captured.append(body)
        return capture(self, body)

    monkeypatch.setattr(CheckpointManager, "capture", recording)
    tree_r, tree_s = point_trees
    path = tmp_path / "join.ckpt"
    # Every barrier after a result captures, and the time cadence
    # catches AM-KDJ's first stage-one barrier before any result.
    cadence = dict(
        checkpoint_path=str(path), checkpoint_every_pairs=1, checkpoint_every_s=0.0
    )
    engines = {}

    def record(name):
        assert captured, name
        assert load_checkpoint(path).keys() == PAYLOAD_KEYS
        for body in captured:
            assert body["mode"] == "exact"
            if name == "amkdj":
                engines[f"amkdj-{body['engine']['stage']}"] = set(body["engine"])
            else:
                engines[name] = set(body["engine"])
        captured.clear()

    for algorithm, name in (("hs", "hs-kdj"), ("bkdj", "bkdj")):
        run(point_trees, algorithm, **cadence)
        record(name)
    # A tiny estimate forces the compensation stage.
    run(point_trees, "amkdj", edmax=1e-9, **cadence)
    record("amkdj")
    for algorithm, name in (("hs", "hs-idj"), ("amidj", "amidj")):
        with JoinRunner(tree_r, tree_s, JoinConfig(**cadence)).idj(algorithm) as stream:
            stream.next_batch(30)
        record(name)
    assert engines == ENGINE_KEYS
    assert FORMAT_VERSION == 3


def test_hs_checkpoint_with_a_flip_key_still_resumes(point_trees, tmp_path):
    # Format-3 HS checkpoints written while HS had more than one
    # expansion policy carry a "flip" key; a resume ignores it.
    path = tmp_path / "join.ckpt"
    ref = run(point_trees, "hs")
    run(point_trees, "hs", checkpoint_path=str(path), checkpoint_every_pairs=7)
    magic, version, _, blob = pickle.loads(path.read_bytes())
    payload = pickle.loads(blob)
    payload["engine"]["flip"] = True
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(pickle.dumps((magic, version, zlib.crc32(blob), blob)))
    resumed = run(point_trees, "hs", resume_from=str(path))
    assert stream(resumed) == stream(ref)
    assert_rows_match(ref.stats.as_row(), resumed.stats.as_row())


# ----------------------------------------------------------------------
# Graceful shutdown: interrupt, then resume
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", EXACT_KDJ)
def test_interrupt_writes_final_checkpoint_and_resumes(
    point_trees, tmp_path, algorithm
):
    path = tmp_path / "join.ckpt"
    ref = run(point_trees, algorithm)
    CheckpointManager.shutdown_all("SIGTERM")
    with pytest.raises(JoinInterrupted) as excinfo:
        run(point_trees, algorithm, checkpoint_path=str(path))
    assert excinfo.value.exit_code == 77
    assert excinfo.value.signal_name == "SIGTERM"
    assert excinfo.value.checkpoint_path == str(path)
    assert excinfo.value.stats is not None
    assert path.exists()
    CheckpointManager.reset_shutdown()
    resumed = run(point_trees, algorithm, resume_from=str(path))
    assert stream(resumed) == stream(ref)
    assert_rows_match(ref.stats.as_row(), resumed.stats.as_row())


@pytest.mark.parametrize("algorithm", ["amidj", "hs"])
def test_idj_stream_interrupt_and_resume(point_trees, tmp_path, algorithm):
    tree_r, tree_s = point_trees
    path = tmp_path / "stream.ckpt"
    with JoinRunner(tree_r, tree_s, JoinConfig()).idj(algorithm) as ref:
        reference = [
            (p.distance, p.ref_r, p.ref_s) for p in ref.next_batch(220)
        ]

    config = JoinConfig(checkpoint_path=str(path), checkpoint_every_pairs=10)
    interrupted = JoinRunner(tree_r, tree_s, config).idj(algorithm)
    first = [
        (p.distance, p.ref_r, p.ref_s) for p in interrupted.next_batch(50)
    ]
    assert first == reference[:50]
    CheckpointManager.shutdown_all("SIGINT")
    with pytest.raises(JoinInterrupted):
        interrupted.next_batch(1)
    interrupted.close()
    CheckpointManager.reset_shutdown()

    watermark = load_checkpoint(path)["watermark"]
    assert watermark == 50
    resume_config = JoinConfig(resume_from=str(path))
    with JoinRunner(tree_r, tree_s, resume_config).idj(algorithm) as resumed:
        rest = [
            (p.distance, p.ref_r, p.ref_s) for p in resumed.next_batch(120)
        ]
        stats = resumed.stats()
    assert rest == reference[watermark : watermark + 120]
    assert stats.results == watermark + 120


def test_signal_handler_latches_shutdown():
    previous = CheckpointManager.install_signal_handlers()
    try:
        os.kill(os.getpid(), signal.SIGTERM)
        manager_seen = CheckpointManager._signal_latch
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        CheckpointManager.reset_shutdown()
    assert manager_seen == "SIGTERM"


# ----------------------------------------------------------------------
# Cadence
# ----------------------------------------------------------------------


def test_time_cadence_waits_as_long_as_the_last_capture(tmp_path, monkeypatch):
    # A capture that takes longer than every_s must not make the next
    # one due at the very next barrier, or the run does little else.
    from types import SimpleNamespace

    from repro.resilience import checkpoint as checkpoint_mod

    now = [0.0]
    slow = [True]

    def dumps(obj, protocol):
        if slow[0]:
            now[0] += 0.5  # two dumps per capture: a 1 s capture
        return pickle.dumps(obj, protocol=protocol)

    clock = SimpleNamespace(monotonic=lambda: now[0], perf_counter=lambda: now[0])
    monkeypatch.setattr(checkpoint_mod, "time", clock)
    monkeypatch.setattr(
        checkpoint_mod, "pickle",
        SimpleNamespace(dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL),
    )
    manager = CheckpointManager(
        tmp_path / "c.ckpt", algorithm="amkdj", k=5, fingerprint={}, every_s=0.05
    )
    assert not manager.barrier(_body)
    now[0] = 0.06
    assert manager.barrier(_body)
    assert manager.last["ms"] == pytest.approx(1000.0)
    now[0] += 0.5  # ten cadences, but only half the last capture
    assert not manager.due()
    assert not manager.barrier(_body)
    now[0] += 0.6
    assert manager.barrier(_body)
    assert manager.checkpoints_written == 2
    # Once captures are fast again, every_s is the cadence again.
    slow[0] = False
    now[0] += 1.1
    assert manager.barrier(_body)
    now[0] += 0.06
    assert manager.barrier(_body)
    assert manager.checkpoints_written == 4


# ----------------------------------------------------------------------
# Parallel engine: drain-barrier checkpoints
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def staged_trees():
    # A small overlapping S group plus a far group: the first stages
    # find some pairs but not k, so the delta widens across several
    # stages and the drain barrier actually captures checkpoints.
    near = random_points(50, seed=51)
    far = random_points(250, seed=52, x0=2500.0)
    tree_r = RTree.bulk_load(random_points(300, seed=50), max_entries=16)
    tree_s = RTree.bulk_load(
        [(rect, i) for i, (rect, _) in enumerate(near + far)], max_entries=16
    )
    return tree_r, tree_s


@pytest.mark.parametrize("mode", ["shm-serial", "shm-process"])
def test_parallel_checkpoint_and_resume(staged_trees, tmp_path, mode):
    # ``parallel_mode`` selects nothing: both runs fork two workers.
    tree_r, tree_s = staged_trees
    k = 120
    path = tmp_path / f"{mode}.ckpt"
    ref = parallel_kdj(
        tree_r, tree_s, k, config=JoinConfig(parallel=2, parallel_mode=mode)
    )
    assert ref.stats.extra["parallel_stages"] >= 2
    ckpt = parallel_kdj(
        tree_r, tree_s, k,
        config=JoinConfig(
            parallel=2, parallel_mode=mode,
            checkpoint_path=str(path), checkpoint_every_s=0.0,
        ),
    )
    assert stream(ckpt) == stream(ref)
    payload = load_checkpoint(path)
    assert payload["mode"] == "shm"
    resumed = parallel_kdj(
        tree_r, tree_s, k,
        config=JoinConfig(
            parallel=2, parallel_mode=mode, resume_from=str(path)
        ),
    )
    assert stream(resumed) == stream(ref)


def test_parallel_resume_reports_the_uninterrupted_counters(
    staged_trees, tmp_path, monkeypatch
):
    # One worker drains inline, so its counters repeat exactly.  With a
    # capture at every stage barrier the file holds the last one, and the
    # resumed run sweeps only the final stage; the checkpoint's stats
    # prefix carries the earlier stages' work and deltas.
    tree_r, tree_s = staged_trees
    k = 120
    path = tmp_path / "join.ckpt"
    config = JoinConfig(parallel=1)
    ref = parallel_kdj(tree_r, tree_s, k, config)
    assert ref.stats.extra["parallel_stages"] == 3
    monkeypatch.setattr(CheckpointManager, "due", lambda self: True)
    ckpt = parallel_kdj(tree_r, tree_s, k, replace(config, checkpoint_path=str(path)))
    monkeypatch.undo()
    assert stream(ckpt) == stream(ref)
    payload = load_checkpoint(path)
    assert payload["mode"] == "shm"
    assert payload["engine"]["stages"] == 2
    assert payload["watermark"] == len(payload["engine"]["acc"])
    resumed = parallel_kdj(tree_r, tree_s, k, replace(config, resume_from=str(path)))
    assert stream(resumed) == stream(ref)
    assert_rows_match(ref.stats.as_row(), resumed.stats.as_row())
    for key in ("parallel_stages", "shm.stack_pushes", "kernels.batches",
                "kernels.batched_pairs", "obs.result_distance.count"):
        assert resumed.stats.extra[key] == ref.stats.extra[key], key
    stages = stage_deltas(resumed.stats.extra)
    assert stages.keys() == stage_deltas(ref.stats.extra).keys()
    assert stages.keys() == {"parallel-1", "parallel-2", "parallel-3"}
    for field, counter in STAGE_FIELDS.items():
        total = sum(deltas[field] for deltas in stages.values())
        if field == "sim_time":
            assert total == pytest.approx(resumed.stats.response_time, rel=1e-9)
        else:
            assert total == getattr(resumed.stats, counter), field


def test_parallel_checkpoint_with_engine_counters_is_a_version_error(
    staged_trees, tmp_path, monkeypatch
):
    # An earlier parallel engine kept its sweep counters in the "shm"
    # engine body (``ctr``) as well as in the stats prefix; such a file
    # resumed to a wrong row.  Validation rejects it as a version
    # mismatch (CLI exit 78) before the trace, plane or manager opens.
    tree_r, tree_s = staged_trees
    path = tmp_path / "join.ckpt"
    monkeypatch.setattr(CheckpointManager, "due", lambda self: True)
    parallel_kdj(
        tree_r, tree_s, 120, JoinConfig(parallel=1, checkpoint_path=str(path))
    )
    monkeypatch.undo()
    magic, version, _, blob = pickle.loads(path.read_bytes())
    payload = pickle.loads(blob)
    payload["engine"]["ctr"] = {
        "real": 79, "axis": 0, "nodes": 2, "batches": 1, "batched_pairs": 4,
        "pushes": 0,
    }
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(pickle.dumps((magic, version, zlib.crc32(blob), blob)))
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"ts": 0.0, "ph": "i", "name": "earlier", "track": 0}\n')
    earlier = trace.read_bytes()
    before = publishers()
    config = JoinConfig(
        parallel=1,
        resume_from=str(path),
        status_path=str(tmp_path / "status.json"),
        trace_path=str(trace),
    )
    with pytest.raises(CheckpointVersionError) as raised:
        parallel_kdj(tree_r, tree_s, 120, config)
    assert raised.value.exit_code == 78
    assert publishers() - before == set()
    assert trace.read_bytes() == earlier


def publishers():
    return {t for t in threading.enumerate() if t.name == "repro-live-publisher"}


def assert_corrupt_resume_opens_nothing(tmp_path, join):
    """``join(config)`` resumes from a corrupt checkpoint with a live
    plane and a trace file that holds an earlier trace.  The payload is
    read and checked before anything opens: the join raises, starts no
    publisher thread and leaves the earlier trace byte for byte."""
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(b"this is not a checkpoint")
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"ts": 0.0, "ph": "i", "name": "earlier", "track": 0}\n')
    earlier = trace.read_bytes()
    before = publishers()
    config = JoinConfig(
        resume_from=str(path),
        status_path=str(tmp_path / "status.json"),
        trace_path=str(trace),
    )
    with pytest.raises(CheckpointCorruptionError):
        join(config)
    assert publishers() - before == set()
    assert trace.read_bytes() == earlier


def test_parallel_corrupt_resume_leaves_no_live_publisher(staged_trees, tmp_path):
    tree_r, tree_s = staged_trees
    assert_corrupt_resume_opens_nothing(
        tmp_path,
        lambda config: parallel_kdj(tree_r, tree_s, 120, replace(config, parallel=2)),
    )


@pytest.mark.parametrize("algorithm", EXACT_KDJ + REPLAY_KDJ)
def test_corrupt_resume_leaves_the_trace_and_no_live_publisher(
    point_trees, tmp_path, algorithm
):
    tree_r, tree_s = point_trees
    assert_corrupt_resume_opens_nothing(
        tmp_path,
        lambda config: JoinRunner(tree_r, tree_s, config).kdj(60, algorithm),
    )


#: How a parallel run can end: normally, or by the typed error raised.
EXIT_PATHS = {
    "complete": None,
    "deadline": JoinDeadlineExceeded,
    "shutdown": JoinInterrupted,
    "corrupt-resume": CheckpointCorruptionError,
    "worker-crash": None,
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("exit_path", list(EXIT_PATHS))
def test_parallel_exit_paths_leave_nothing_behind(
    staged_trees, tmp_path, exit_path, workers
):
    # Whichever way the run ends, no worker process, publisher thread,
    # spill file or directory, or checkpoint temp file is left, and the
    # trace is closed and balanced: a Chrome trace is written only when
    # its tracer closes.
    tree_r, tree_s = staged_trees
    spill = tmp_path / "spill"
    trace = tmp_path / "trace.json"
    checkpoint = tmp_path / "join.ckpt"
    config = JoinConfig(
        parallel=workers,
        spill_dir=str(spill),
        trace_path=str(trace),
        status_path=str(tmp_path / "status.json"),
        checkpoint_path=str(checkpoint),
        checkpoint_every_s=0.0,
    )
    if exit_path == "deadline":
        config = replace(config, deadline_s=1e-9)
    elif exit_path == "shutdown":
        # As SIGTERM does: the run checkpoints and stops at its first
        # stage barrier.
        CheckpointManager.shutdown_all("SIGTERM")
    elif exit_path == "corrupt-resume":
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(b"this is not a checkpoint")
        config = replace(config, resume_from=str(corrupt))
    elif exit_path == "worker-crash":
        config = replace(config, fault_plan=FaultPlan.parse("worker_crash"))
    before = publishers()
    error = EXIT_PATHS[exit_path]
    if error is None:
        result = parallel_kdj(tree_r, tree_s, 120, config)
        assert len(result) == 120
        if exit_path == "worker-crash" and workers == 2:
            assert result.stats.extra["resilience_worker_fallbacks"] >= 1
    else:
        with pytest.raises(error):
            parallel_kdj(tree_r, tree_s, 120, config)
    assert multiprocessing.active_children() == []
    assert publishers() - before == set()
    assert list(tmp_path.rglob("*.pile")) == []
    assert not spill.exists()
    assert not checkpoint.with_name(checkpoint.name + ".tmp").exists()
    if exit_path == "shutdown":
        assert load_checkpoint(checkpoint)["engine"]["stages"] == 1
    if exit_path == "corrupt-resume":
        assert not trace.exists()
    else:
        assert balanced(load_trace(trace))


#: Every sequential run: the k-distance joins, both incremental streams
#: (closed after a partial pull) and both join variants.
SEQUENTIAL_RUNS = EXACT_KDJ + REPLAY_KDJ + ["idj-hs", "idj-amidj", "within", "ann"]

#: The runs that pop a main queue, and so can spill it.
QUEUE_RUNS = ("hs", "bkdj", "amkdj", "idj-hs", "idj-amidj")

#: How a sequential run can end: normally, or by the typed error raised.
SEQUENTIAL_EXITS = {
    "complete": None,
    "deadline": JoinDeadlineExceeded,
    "shutdown": JoinInterrupted,
    "corrupt-resume": CheckpointCorruptionError,
    "spill-read": SpillCorruptionError,
}


def sequential_run(kind, trees, config):
    """One run of ``kind`` (see :data:`SEQUENTIAL_RUNS`); a stream pulls
    100 pairs and is closed on every exit path."""
    tree_r, tree_s = trees
    if kind == "within":
        return within_distance_join(tree_r, tree_s, 20.0, config)
    if kind == "ann":
        return all_nearest_neighbors(tree_r, tree_s, config)
    if kind.startswith("idj-"):
        with JoinRunner(tree_r, tree_s, config).idj(kind[len("idj-"):]) as stream:
            return stream.next_batch(100)
    return JoinRunner(tree_r, tree_s, config).kdj(60, kind)


@pytest.mark.parametrize(
    "kind, exit_path",
    [
        (kind, exit_path)
        for kind in SEQUENTIAL_RUNS
        for exit_path in SEQUENTIAL_EXITS
        if exit_path != "spill-read" or kind in QUEUE_RUNS
    ],
)
def test_sequential_exit_paths_leave_nothing_behind(
    point_trees, tmp_path, kind, exit_path
):
    # The sequential twin of the parallel test above: whichever way the
    # run ends, no spill file or directory, checkpoint temp file or
    # publisher thread is left, and the trace is closed and balanced.
    spill = tmp_path / "spill"
    trace = tmp_path / "trace.json"
    checkpoint = tmp_path / "join.ckpt"
    config = JoinConfig(
        spill_dir=str(spill),
        trace_path=str(trace),
        status_path=str(tmp_path / "status.json"),
        checkpoint_path=str(checkpoint),
        checkpoint_every_s=0.0,
    )
    if exit_path == "deadline":
        config = replace(config, deadline_s=1e-9)
    elif exit_path == "shutdown":
        # As SIGTERM does: the run checkpoints and stops at its first
        # barrier.
        CheckpointManager.shutdown_all("SIGTERM")
    elif exit_path == "corrupt-resume":
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(b"this is not a checkpoint")
        config = replace(config, resume_from=str(corrupt))
    elif exit_path == "spill-read":
        # A queue of a few entries spills at once; reading a batch back
        # finds it corrupt.
        config = replace(
            config, queue_memory=256, fault_plan=FaultPlan.parse("spill_read")
        )
    error = SEQUENTIAL_EXITS[exit_path]
    if kind == "ann":
        # The aNN searches have no capture point, so the run takes no
        # checkpoints: a checkpoint field raises before anything opens.
        # The shutdown and corrupt-resume paths rest on one; the others
        # run without.
        if exit_path in ("shutdown", "corrupt-resume"):
            error = ValueError
        else:
            config = replace(config, checkpoint_path=None)
    before = publishers()
    if error is None:
        assert sequential_run(kind, point_trees, config)
    else:
        with pytest.raises(error):
            sequential_run(kind, point_trees, config)
    assert publishers() - before == set()
    assert list(tmp_path.rglob("*.pile")) == []
    assert not spill.exists()
    assert not checkpoint.with_name(checkpoint.name + ".tmp").exists()
    if exit_path == "shutdown" and error is JoinInterrupted:
        assert load_checkpoint(checkpoint)["watermark"] >= 0
    if error in (CheckpointCorruptionError, ValueError):
        assert not trace.exists()
        assert not checkpoint.exists()
    else:
        assert balanced(load_trace(trace))


@pytest.mark.parametrize(
    "field", ["resume_from", "checkpoint_path", "resume_from+checkpoint_path"]
)
def test_ann_rejects_checkpoint_fields(point_trees, tmp_path, field):
    # aNN takes no checkpoints, so a field that asks for one raises a
    # ValueError naming it, before the trace file or the plane opens.
    trace = tmp_path / "trace.json"
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(b"this is not a checkpoint")
    fields = {
        "resume_from": str(corrupt),
        "checkpoint_path": str(tmp_path / "join.ckpt"),
    }
    config = JoinConfig(
        trace_path=str(trace),
        status_path=str(tmp_path / "status.json"),
        **{name: fields[name] for name in field.split("+")},
    )
    before = publishers()
    with pytest.raises(ValueError, match=field.split("+")[0]):
        all_nearest_neighbors(*point_trees, config)
    assert publishers() - before == set()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corrupt.ckpt"]


# ----------------------------------------------------------------------
# Recovery: typed errors for every corruption shape
# ----------------------------------------------------------------------


@pytest.fixture()
def valid_checkpoint(point_trees, tmp_path):
    path = tmp_path / "valid.ckpt"
    run(
        point_trees,
        "amkdj",
        checkpoint_path=str(path),
        checkpoint_every_pairs=7,
    )
    assert path.exists()
    return path


def test_load_missing_file_is_typed_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_load_garbage_is_corruption(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"this is not a checkpoint")
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(path)


def test_load_truncated_is_corruption(valid_checkpoint, tmp_path):
    raw = valid_checkpoint.read_bytes()
    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(truncated)


def test_load_bad_magic_is_corruption(valid_checkpoint, tmp_path):
    _, version, crc, blob = pickle.loads(valid_checkpoint.read_bytes())
    forged = tmp_path / "magic.ckpt"
    forged.write_bytes(pickle.dumps((b"NOTCKP", version, crc, blob)))
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(forged)


def test_load_version_mismatch_is_typed(valid_checkpoint, tmp_path):
    magic, _, crc, blob = pickle.loads(valid_checkpoint.read_bytes())
    future = tmp_path / "future.ckpt"
    future.write_bytes(pickle.dumps((magic, FORMAT_VERSION + 9, crc, blob)))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(future)


def test_format_1_checkpoint_is_a_version_error(
    point_trees, valid_checkpoint, tmp_path, monkeypatch
):
    # Format 1 pickled expansion records that carried packed sweep
    # windows, format 2 records holding one ``AnchorScan`` object per
    # anchor; either file must fail as a version mismatch (CLI exit 78),
    # not as corruption or as an unpickling error.
    assert FORMAT_VERSION == 3
    magic, _, crc, blob = pickle.loads(valid_checkpoint.read_bytes())
    old = tmp_path / "v1.ckpt"
    old.write_bytes(pickle.dumps((magic, 1, crc, blob)))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(old)

    # A format-2 payload names a class this build no longer has.
    class AnchorScan:
        def __init__(self, from_r, anchor_pos, start, resume):
            self.fields = (from_r, anchor_pos, start, resume)

    AnchorScan.__module__ = planesweep.__name__
    AnchorScan.__qualname__ = "AnchorScan"
    monkeypatch.setattr(planesweep, "AnchorScan", AnchorScan, raising=False)
    v2_blob = pickle.dumps({"anchors": [AnchorScan(True, 0, 0, 1)]})
    monkeypatch.delattr(planesweep, "AnchorScan")
    with pytest.raises(AttributeError):
        pickle.loads(v2_blob)
    v2 = tmp_path / "v2.ckpt"
    v2.write_bytes(pickle.dumps((magic, 2, zlib.crc32(v2_blob), v2_blob)))
    with pytest.raises(CheckpointVersionError) as excinfo:
        load_checkpoint(v2)
    assert excinfo.value.exit_code == 78

    from repro.__main__ import main

    paths = [tmp_path / "r.rt", tmp_path / "s.rt"]
    for tree, path in zip(point_trees, paths):
        tree.save(path)
    argv = ["join", *map(str, paths), "-a", "amkdj", "-k", "60", "--resume", str(v2)]
    assert main(argv) == 78


def test_load_crc_mismatch_is_corruption(valid_checkpoint, tmp_path):
    magic, version, crc, blob = pickle.loads(valid_checkpoint.read_bytes())
    flipped = bytes([blob[0] ^ 0xFF]) + blob[1:]
    damaged = tmp_path / "crc.ckpt"
    damaged.write_bytes(pickle.dumps((magic, version, crc, flipped)))
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(damaged)


def test_resume_with_wrong_algorithm_is_mismatch(point_trees, valid_checkpoint):
    with pytest.raises(CheckpointMismatchError):
        run(point_trees, "bkdj", resume_from=str(valid_checkpoint))


def test_resume_with_wrong_k_is_mismatch(point_trees, valid_checkpoint):
    with pytest.raises(CheckpointMismatchError):
        run(point_trees, "amkdj", k=61, resume_from=str(valid_checkpoint))


def test_resume_with_wrong_trees_is_mismatch(valid_checkpoint):
    other = (
        RTree.bulk_load(random_points(150, seed=71), max_entries=16),
        RTree.bulk_load(random_points(150, seed=72), max_entries=16),
    )
    with pytest.raises(CheckpointMismatchError):
        run(other, "amkdj", resume_from=str(valid_checkpoint))


def test_mode_outside_engine_family_is_mismatch(point_trees, valid_checkpoint):
    tree_r, tree_s = point_trees
    payload = load_checkpoint(valid_checkpoint)
    with pytest.raises(CheckpointMismatchError):
        validate_checkpoint(
            payload,
            algorithm="amkdj",
            k=60,
            fingerprint=join_fingerprint(tree_r, tree_s, "amkdj", 60),
            modes=("shm",),
        )


# ----------------------------------------------------------------------
# Fault injection: checkpoint_write / checkpoint_read sites
# ----------------------------------------------------------------------


def _body():
    return {"mode": "exact", "engine": {}, "stats": None}


def test_failed_write_is_counted_not_fatal(tmp_path):
    manager = CheckpointManager(
        tmp_path / "c.ckpt",
        algorithm="amkdj",
        k=5,
        fingerprint={},
        every_pairs=1,
        faults=FaultPlan.parse("checkpoint_write:@0"),
    )
    assert manager.capture(_body()) is False
    assert manager.write_failures == 1
    assert not (tmp_path / "c.ckpt").exists()
    assert not (tmp_path / "c.ckpt.tmp").exists()
    # The site fired once; the next write goes through.
    assert manager.capture(_body()) is True
    assert (tmp_path / "c.ckpt").exists()


def test_failed_write_preserves_previous_checkpoint(tmp_path):
    manager = CheckpointManager(
        tmp_path / "c.ckpt",
        algorithm="amkdj",
        k=5,
        fingerprint={},
        every_pairs=1,
        faults=FaultPlan.parse("checkpoint_write:@1"),
    )
    manager.note_emit(3)
    assert manager.capture(_body()) is True
    manager.note_emit(4)
    assert manager.capture(_body()) is False
    # The atomic temp-write/rename left the first checkpoint intact.
    assert load_checkpoint(tmp_path / "c.ckpt")["watermark"] == 3


def test_checkpoint_read_fault_raises_corruption(valid_checkpoint):
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(
            valid_checkpoint, faults=FaultPlan.parse("checkpoint_read:@0")
        )


def test_join_survives_failed_periodic_write(point_trees, tmp_path):
    ref = run(point_trees, "amkdj")
    result = run(
        point_trees,
        "amkdj",
        checkpoint_path=str(tmp_path / "join.ckpt"),
        checkpoint_every_pairs=5,
        fault_plan=FaultPlan.parse("checkpoint_write:@0"),
    )
    assert stream(result) == stream(ref)


# ----------------------------------------------------------------------
# MainQueue spill-dir ownership (graceful-teardown satellite)
# ----------------------------------------------------------------------


def _filled_queue(spill_dir):
    queue = MainQueue(
        SimulatedDisk(), memory_bytes=8 * 48, spill_dir=spill_dir
    )
    rng = random.Random(9)
    for i in range(600):
        queue.insert(rng.uniform(0.0, 500.0), ("payload", i))
    return queue


def test_close_removes_created_spill_dir(tmp_path):
    spill = tmp_path / "spill" / "run1"
    queue = _filled_queue(spill)
    assert spill.exists()
    assert queue.spill_files > 0
    queue.close()
    assert not spill.exists()
    # Idempotent: a second close is a no-op, not an error.
    queue.close()


def test_close_keeps_preexisting_spill_dir(tmp_path):
    spill = tmp_path / "user-spill"
    spill.mkdir()
    queue = _filled_queue(spill)
    queue.close()
    assert spill.exists()
    assert list(spill.iterdir()) == []


def test_restore_after_close_recreates_spill_dir(tmp_path):
    spill = tmp_path / "spill-roundtrip"
    queue = _filled_queue(spill)
    state = queue.snapshot()
    drained_ref = []
    while queue:
        drained_ref.append(queue.pop())
    queue.close()
    assert not spill.exists()
    queue.restore(state)
    assert spill.exists()
    drained = []
    while queue:
        drained.append(queue.pop())
    queue.close()
    assert [d for d, _ in drained] == [d for d, _ in drained_ref]
    assert not spill.exists()
