"""Resilient join execution: typed errors, fault injection, deadlines.

Three pieces, each wired through the engines:

- :mod:`repro.resilience.errors` — the :class:`ReproError` hierarchy
  every deliberate failure derives from (the CLI maps each subclass to a
  distinct exit code);
- :mod:`repro.resilience.faults` — the deterministic, seeded
  :class:`FaultPlan` harness (worker crash/kill/stall, spill-write
  ENOSPC, spill-read corruption) that tests and ``--inject-faults``
  activate;
- :mod:`repro.resilience.deadline` — cooperative :class:`Deadline`
  enforcement for ``JoinConfig.deadline_s`` in every engine's expansion
  loop;
- :mod:`repro.resilience.checkpoint` / :mod:`repro.resilience.recovery`
  — durable :class:`CheckpointManager` snapshots of a running join
  (``JoinConfig.checkpoint_path``) plus the :func:`load_checkpoint`
  side that ``resume_from`` runs use to continue the byte-identical
  result stream after a crash or graceful SIGINT/SIGTERM shutdown.
"""

from repro.resilience.checkpoint import CheckpointManager, join_fingerprint
from repro.resilience.deadline import Deadline, NULL_DEADLINE, NullDeadline
from repro.resilience.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    FaultSpecError,
    InjectedWorkerCrash,
    JoinDeadlineExceeded,
    JoinInterrupted,
    ReproError,
    SpillCorruptionError,
    SpillError,
    StaleStreamError,
)
from repro.resilience.faults import FaultPlan, FaultSpec, trip_worker_faults
from repro.resilience.recovery import load_checkpoint, validate_checkpoint

__all__ = [
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "Deadline",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "InjectedWorkerCrash",
    "JoinDeadlineExceeded",
    "JoinInterrupted",
    "NULL_DEADLINE",
    "NullDeadline",
    "ReproError",
    "SpillCorruptionError",
    "SpillError",
    "StaleStreamError",
    "join_fingerprint",
    "load_checkpoint",
    "trip_worker_faults",
    "validate_checkpoint",
]
