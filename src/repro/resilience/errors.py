"""Typed error hierarchy for join execution.

Every failure the library raises deliberately derives from
:class:`ReproError`, so callers (and the CLI) can distinguish *our*
failure modes from arbitrary bugs with one ``except`` clause.  Each
subclass carries a distinct ``exit_code`` (loosely following the BSD
``sysexits.h`` ranges) that ``python -m repro`` maps to a one-line
stderr message instead of a traceback.

Injected faults deliberately do **not** raise ``ReproError``:
:class:`InjectedWorkerCrash` simulates an arbitrary worker bug and
:mod:`repro.resilience.faults` raises plain ``OSError`` for spill-write
failures, so the recovery machinery is exercised against the same
exception types real failures produce.
"""

from __future__ import annotations

__all__ = [
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "FaultSpecError",
    "InjectedWorkerCrash",
    "JoinDeadlineExceeded",
    "JoinInterrupted",
    "ReproError",
    "SpillCorruptionError",
    "SpillError",
    "StaleStreamError",
]


class ReproError(Exception):
    """Base class for every typed error the join library raises."""

    #: Process exit code the CLI maps this error class to.
    exit_code = 70  # EX_SOFTWARE


class FaultSpecError(ReproError, ValueError):
    """A ``--inject-faults`` specification could not be parsed."""

    exit_code = 64  # EX_USAGE


class SpillError(ReproError):
    """Base class for spill-file I/O failures of the hybrid main queue."""

    exit_code = 74  # EX_IOERR


class SpillCorruptionError(SpillError):
    """A spill segment failed its checksum or entry-count validation.

    Raised when reading back a ``seg-*.pile`` batch whose CRC-32 does not
    match, whose framing cannot be unpickled (truncation), or whose total
    entry count disagrees with what the queue wrote.  The data is gone;
    the queue cannot transparently recover, so the join surfaces the
    typed error (after releasing its remaining spill files).
    """

    exit_code = 76


class JoinDeadlineExceeded(ReproError):
    """A join exceeded its cooperative ``deadline_s`` budget."""

    exit_code = 75  # EX_TEMPFAIL

    def __init__(self, budget_s: float, elapsed_s: float) -> None:
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        super().__init__(
            f"join deadline of {budget_s:.3f}s exceeded "
            f"(elapsed {elapsed_s:.3f}s)"
        )

    def __reduce__(self):
        # Survive pickling: default exception pickling would replay the
        # formatted message into (budget_s, elapsed_s).
        return (type(self), (self.budget_s, self.elapsed_s))


class JoinInterrupted(ReproError):
    """A join stopped early on a graceful-shutdown request (SIGINT/SIGTERM).

    Raised *after* the final checkpoint was captured, so the run can be
    continued with ``--resume``.  Carries the partial :class:`JoinStats`
    accumulated so far and the checkpoint path (``None`` when the final
    capture itself failed).
    """

    exit_code = 77

    def __init__(self, signal_name: str, checkpoint_path=None, stats=None) -> None:
        self.signal_name = signal_name
        self.checkpoint_path = checkpoint_path
        self.stats = stats
        where = f"; checkpoint written to {checkpoint_path}" if checkpoint_path else ""
        super().__init__(f"join interrupted by {signal_name}{where}")

    def __reduce__(self):
        # stats/paths may not round-trip; keep the identifying fields.
        return (type(self), (self.signal_name, self.checkpoint_path, None))


class StaleStreamError(ReproError):
    """An open incremental stream's tree was written (the stream is closed)."""

    exit_code = 65  # EX_DATAERR


class CheckpointError(ReproError):
    """Base class for checkpoint write/read failures."""

    exit_code = 78


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint file failed its CRC-32 or framing validation.

    Raised when the payload cannot be unpickled (truncation), the magic
    header is wrong, or the stored CRC-32 does not match the payload.
    The checkpoint is unusable; the join must be re-run from scratch —
    a corrupt checkpoint never yields garbage results.
    """


class CheckpointVersionError(CheckpointError):
    """A checkpoint file was written by an incompatible format version."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint does not match the join it is being applied to.

    The stored fingerprint (trees, algorithm, ``k``, configuration) has
    to agree with the resuming run; silently resuming a different join
    would emit wrong results.
    """


class InjectedWorkerCrash(RuntimeError):
    """Deliberate worker failure raised by the fault-injection harness.

    Intentionally a plain ``RuntimeError`` subclass: it stands in for an
    arbitrary bug inside a parallel worker, so the recovery machinery
    must treat it exactly like one.
    """
