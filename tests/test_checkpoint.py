"""Durable checkpoint/resume and graceful shutdown.

The load-bearing property is *equivalence*: a run that checkpoints —
or is killed and resumed — must produce the byte-identical result
stream and (for exact-state engines) the same paper counters as an
uninterrupted run.  The corruption tests pin the typed-error surface of
the recovery path: a damaged checkpoint never yields garbage results.
"""

import os
import pickle
import random
import signal

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree, parallel_kdj
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
    JoinInterrupted,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import load_checkpoint, validate_checkpoint
from repro.storage.disk import SimulatedDisk

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
    runner = JoinRunner(tree_r, tree_s, JoinConfig())
    assert runner._open_checkpoint("amkdj", 5, None, None) == (None, None)


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


@pytest.mark.parametrize("mode", ["shm-serial", "shm-thread", "shm-process"])
def test_parallel_checkpoint_and_resume(staged_trees, tmp_path, mode):
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


def test_format_1_checkpoint_is_a_version_error(valid_checkpoint, tmp_path):
    # Format 1 pickled expansion records that carried packed sweep
    # windows; such a file must fail as a version mismatch, not as
    # corruption.
    assert FORMAT_VERSION == 2
    magic, _, crc, blob = pickle.loads(valid_checkpoint.read_bytes())
    old = tmp_path / "v1.ckpt"
    old.write_bytes(pickle.dumps((magic, 1, crc, blob)))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(old)


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
