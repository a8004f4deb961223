"""Checkpoint load and validation for ``resume_from`` runs.

:func:`load_checkpoint` is the inverse of
:meth:`~repro.resilience.checkpoint.CheckpointManager.capture`: it
reads the ``(MAGIC, FORMAT_VERSION, crc32, blob)`` record, verifies the
framing, version and CRC, and unpickles the payload.  Every failure
mode maps to a typed error (exit code 78) rather than a raw pickle
traceback:

- missing / unreadable / truncated / non-checkpoint file, CRC mismatch,
  undecodable payload → :class:`CheckpointCorruptionError`
- a valid record written by an incompatible format version, or a
  parallel-engine body from before its counters moved into the stats
  prefix (``ctr`` in the ``"shm"`` engine state)
  → :class:`CheckpointVersionError`
- a valid checkpoint for a *different* join (other datasets, algorithm,
  k, or engine mode) → :class:`CheckpointMismatchError`

The ``checkpoint_read`` fault site corrupts the blob *before* CRC
validation, exercising the corruption path deterministically.
"""

from __future__ import annotations

from pathlib import Path
import pickle
from typing import Any, Iterable
import zlib

from repro.resilience.checkpoint import FORMAT_VERSION, MAGIC
from repro.resilience.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
)

__all__ = ["load_checkpoint", "validate_checkpoint"]


def load_checkpoint(path: str | Path, faults=None) -> dict[str, Any]:
    """Read, verify and unpickle one checkpoint file.

    Parameters
    ----------
    path:
        Checkpoint file written by a previous run.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan`; its
        ``checkpoint_read`` site corrupts the blob before the CRC check.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint file at {path}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        record = pickle.loads(raw)
    except Exception as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} is not a readable checkpoint record: {exc}"
        ) from exc
    if not (isinstance(record, tuple) and len(record) == 4):
        raise CheckpointCorruptionError(
            f"checkpoint {path} has unexpected framing "
            f"(got {type(record).__name__})"
        )
    magic, version, crc, blob = record
    if magic != MAGIC:
        raise CheckpointCorruptionError(
            f"checkpoint {path} has bad magic {magic!r}"
        )
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint {path} is format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    if faults is not None:
        blob = faults.maybe_corrupt("checkpoint_read", blob)
    if not isinstance(blob, bytes) or zlib.crc32(blob) != crc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} failed CRC validation (corrupt or truncated)"
        )
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} payload does not unpickle: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "engine" not in payload:
        raise CheckpointCorruptionError(
            f"checkpoint {path} payload has unexpected shape"
        )
    return payload


def validate_checkpoint(
    payload: dict[str, Any],
    *,
    algorithm: str,
    k: int,
    fingerprint: dict[str, Any],
    modes: Iterable[str],
) -> None:
    """Reject a checkpoint that belongs to a different join.

    ``modes`` names the resume strategies the caller can execute
    (e.g. ``("exact",)`` for a sequential engine, ``("shm",)`` for the
    parallel engine); a checkpoint written by another engine family is a
    mismatch, not corruption.
    """
    if payload.get("algorithm") != algorithm:
        raise CheckpointMismatchError(
            f"checkpoint was written by algorithm "
            f"{payload.get('algorithm')!r}, not {algorithm!r}"
        )
    if payload.get("k") != k:
        raise CheckpointMismatchError(
            f"checkpoint was written for k={payload.get('k')}, not k={k}"
        )
    if payload.get("fingerprint") != fingerprint:
        raise CheckpointMismatchError(
            "checkpoint fingerprint does not match the input datasets: "
            f"expected {fingerprint}, found {payload.get('fingerprint')}"
        )
    mode = payload.get("mode")
    if mode not in tuple(modes):
        raise CheckpointMismatchError(
            f"checkpoint mode {mode!r} cannot be resumed by this engine "
            f"(supports: {', '.join(modes)})"
        )
    if mode == "shm" and "ctr" in payload["engine"]:
        # The parallel engine charges its sweep work into the stats
        # prefix alone; a body that also holds the counters comes from
        # an earlier engine and resumes to a wrong row.
        raise CheckpointVersionError(
            "checkpoint was written by an earlier parallel engine that kept "
            "its work counters in the engine state; re-run the join"
        )
