"""Durable checkpoints and graceful shutdown for long-running joins.

A :class:`CheckpointManager` periodically snapshots a join's full
logical state — main-queue contents, distance-queue/qDmax, eDmax and
stage counters, the compensation queue with per-anchor resume
positions, the emitted-pair watermark, and the accumulated
:class:`~repro.core.stats.JoinStats` — to a single self-contained
checkpoint file.  A later run started with ``resume_from`` restores
that state and produces the byte-identical remaining result stream
(see :mod:`repro.resilience.recovery`).

File format (version |version|): one pickled record
``(MAGIC, FORMAT_VERSION, crc32, blob)`` where ``blob`` is the pickled
payload dictionary — the same checksummed framing the spill segments
use, so the CRC covers exactly the bytes that are unpickled on
read-back.  Writes go to a temp file in the target directory and are
published with ``os.replace``, so a crash (or an injected
``checkpoint_write`` ENOSPC) mid-write never clobbers the previous
checkpoint.

Capture discipline: engines call :meth:`CheckpointManager.note_emit`
per produced result and :meth:`CheckpointManager.barrier` at their
stage boundaries (sequential engines: top of the expansion loop; the
parallel engine: the drain barrier between stages, with all workers
quiesced and partial top-k merged).  ``barrier`` is a no-op until the
pair/time cadence makes a checkpoint due; on a graceful-shutdown
request (SIGINT/SIGTERM via :meth:`install_signal_handlers`) it writes
a final checkpoint and raises the typed
:class:`~repro.resilience.errors.JoinInterrupted`, which the CLI maps
to partial-stats JSON and exit code 77 instead of a traceback.

Checkpointing never touches the simulated cost model: with
checkpointing unset no manager is allocated at all, and with it set
the paper's counters (``stats.as_row()``) are unchanged.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import weakref
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.resilience.errors import JoinInterrupted

__all__ = ["CheckpointManager", "FORMAT_VERSION", "MAGIC"]

#: Magic bytes identifying a repro checkpoint file.
MAGIC = b"RPCKPT"

#: Bumped whenever the payload schema changes incompatibly; a mismatch
#: raises :class:`~repro.resilience.errors.CheckpointVersionError`.
#: Version 2: expansion records no longer carry packed sweep windows.
FORMAT_VERSION = 2

#: Time cadence used when a checkpoint path is set but neither
#: ``checkpoint_every_pairs`` nor ``checkpoint_every_s`` is.
DEFAULT_EVERY_S = 5.0


def join_fingerprint(tree_r, tree_s, algorithm: str, k: int) -> dict[str, Any]:
    """Identity of a join for checkpoint/resume matching.

    Deliberately cheap: sizes and node counts pin the datasets well
    enough to reject the realistic mistake (resuming against different
    trees or a different query), without hashing every rectangle.
    """
    return {
        "r_size": tree_r.size,
        "r_nodes": tree_r.node_count(),
        "s_size": tree_s.size,
        "s_nodes": tree_s.node_count(),
        "algorithm": algorithm,
        "k": k,
    }


class CheckpointManager:
    """Owns one join run's checkpoint file, cadence and shutdown flag.

    Parameters
    ----------
    path:
        Checkpoint file location (parent directory must be writable;
        it is created if missing).
    algorithm / k / fingerprint:
        Identity stamped into every checkpoint and validated on resume.
    every_pairs / every_s:
        Capture cadence: a checkpoint becomes due every N emitted pairs
        and/or every T seconds (whichever fires first).  With both
        ``None``, :data:`DEFAULT_EVERY_S` applies.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan`; its
        ``checkpoint_write`` site injects ENOSPC into the next write.
    tracer / metrics:
        The run's observability hooks: every capture emits a
        ``checkpoint`` event and bumps the ``checkpoint_bytes`` /
        ``checkpoint_ms`` counters.
    """

    #: Live managers, notified by :meth:`shutdown_all`.
    _live: "weakref.WeakSet[CheckpointManager]" = weakref.WeakSet()
    #: Class-level shutdown latch: a signal that arrives before (or
    #: between) manager lifetimes still stops the next join promptly.
    _signal_latch: str | None = None

    def __init__(
        self,
        path: str | Path,
        *,
        algorithm: str,
        k: int,
        fingerprint: dict[str, Any],
        every_pairs: int | None = None,
        every_s: float | None = None,
        faults=None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.path = Path(path)
        self.algorithm = algorithm
        self.k = k
        self.fingerprint = fingerprint
        if every_pairs is None and every_s is None:
            every_s = DEFAULT_EVERY_S
        self.every_pairs = every_pairs
        self.every_s = every_s
        self._faults = faults
        self._tracer = tracer
        self._metrics = metrics
        self.emitted = 0
        self._last_emit_mark = 0
        self._last_time = time.monotonic()
        self._started = time.monotonic()
        self.checkpoints_written = 0
        self.write_failures = 0
        self.last: dict[str, Any] = {}
        self._shutdown: str | None = type(self)._signal_latch
        type(self)._live.add(self)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_config(
        cls,
        config,
        *,
        algorithm: str,
        k: int,
        fingerprint: dict[str, Any],
        tracer=None,
        metrics=None,
    ) -> "CheckpointManager | None":
        """A manager for ``config``, or ``None`` when checkpointing is off.

        The ``None`` path allocates nothing — the counter-invariance
        guarantee for runs without ``checkpoint_path``.
        """
        path = getattr(config, "checkpoint_path", None)
        if path is None:
            return None
        return cls(
            path,
            algorithm=algorithm,
            k=k,
            fingerprint=fingerprint,
            every_pairs=getattr(config, "checkpoint_every_pairs", None),
            every_s=getattr(config, "checkpoint_every_s", None),
            faults=getattr(config, "fault_plan", None),
            tracer=tracer,
            metrics=metrics,
        )

    # -- cadence --------------------------------------------------------

    def note_emit(self, n: int = 1) -> None:
        """Advance the emitted-pair watermark by ``n`` results."""
        self.emitted += n

    @property
    def shutdown_requested(self) -> str | None:
        """The signal name that requested shutdown, or ``None``."""
        return self._shutdown or type(self)._signal_latch

    def due(self) -> bool:
        """Whether the pair/time cadence calls for a checkpoint now."""
        if (
            self.every_pairs is not None
            and self.emitted - self._last_emit_mark >= self.every_pairs
        ):
            return True
        if (
            self.every_s is not None
            and time.monotonic() - self._last_time >= self.every_s
        ):
            return True
        return False

    def barrier(self, build: Callable[[], dict[str, Any]]) -> bool:
        """Capture point: snapshot when due, stop on shutdown request.

        ``build()`` must return the engine's payload body — a dict with
        ``mode`` (``"exact"``/``"replay"``/``"shm"``),
        ``engine`` (engine-specific state) and ``stats`` (the run's
        :class:`JoinStats` prefix as of this barrier).  It is only
        invoked when a checkpoint is actually written, so the hot path
        costs two comparisons.  On a pending shutdown request the final
        checkpoint is captured and :class:`JoinInterrupted` raised.
        """
        signal_name = self.shutdown_requested
        if signal_name is None and not self.due():
            return False
        body = build()
        written = self.capture(body)
        if signal_name is not None:
            raise JoinInterrupted(
                signal_name,
                str(self.path) if written else None,
                body.get("stats"),
            )
        return written

    # -- capture --------------------------------------------------------

    def capture(self, body: dict[str, Any]) -> bool:
        """Atomically write one checkpoint; ``False`` on a failed write.

        A failed periodic write (disk full, an injected
        ``checkpoint_write`` fault) is not fatal: the previous
        checkpoint file — if any — survives untouched behind the
        temp-write/rename protocol, the failure is counted and traced,
        and the join continues.
        """
        payload = {
            "format": FORMAT_VERSION,
            "algorithm": self.algorithm,
            "k": self.k,
            "fingerprint": self.fingerprint,
            "watermark": self.emitted,
            "checkpoints": self.checkpoints_written + 1,
            "wall_s": time.monotonic() - self._started,
        }
        payload.update(body)
        started = time.perf_counter()
        # One dumps call for the whole payload: queue entries and
        # compensation records share object references (a record rides
        # in both a queue payload and the pending-record list), and a
        # single pickle preserves that identity on restore.
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        record = pickle.dumps(
            (MAGIC, FORMAT_VERSION, zlib.crc32(blob), blob),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            if self._faults is not None:
                self._faults.maybe_fail_checkpoint_write()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as f:
                f.write(record)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            self.write_failures += 1
            if self._metrics is not None:
                self._metrics.counter("checkpoint_write_failures").inc()
            if self._tracer is not None and getattr(self._tracer, "enabled", False):
                self._tracer.event("checkpoint_write_failed", error=str(exc))
            return False
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.checkpoints_written += 1
        self._last_emit_mark = self.emitted
        self._last_time = time.monotonic()
        self.last = {
            "seq": self.checkpoints_written,
            "path": str(self.path),
            "watermark": self.emitted,
            "bytes": len(record),
            "ms": elapsed_ms,
            "mode": body.get("mode"),
        }
        if self._metrics is not None:
            self._metrics.counter("checkpoint_bytes").inc(float(len(record)))
            self._metrics.counter("checkpoint_ms").inc(elapsed_ms)
            self._metrics.counter("checkpoints").inc()
        if self._tracer is not None and getattr(self._tracer, "enabled", False):
            self._tracer.event(
                "checkpoint",
                seq=self.checkpoints_written,
                watermark=self.emitted,
                bytes=len(record),
                ms=elapsed_ms,
            )
        return True

    def live_view(self) -> dict[str, Any]:
        """Status-file source: the last checkpoint's identity (or {})."""
        return dict(self.last)

    # -- shutdown -------------------------------------------------------

    def request_shutdown(self, signal_name: str) -> None:
        """Ask this join to checkpoint and stop at its next barrier."""
        self._shutdown = signal_name

    @classmethod
    def shutdown_all(cls, signal_name: str) -> None:
        """Flag every live manager (and future ones) for shutdown."""
        cls._signal_latch = signal_name
        for manager in list(cls._live):
            manager.request_shutdown(signal_name)

    @classmethod
    def reset_shutdown(cls) -> None:
        """Clear the class-level latch (tests; between CLI invocations)."""
        cls._signal_latch = None

    @classmethod
    def install_signal_handlers(cls) -> dict[int, Any]:
        """Route SIGINT/SIGTERM into graceful shutdown; returns previous
        handlers so callers (tests) can restore them."""
        previous: dict[int, Any] = {}

        def _handler(signum, frame) -> None:
            cls.shutdown_all(signal.Signals(signum).name)

        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _handler)
        return previous

    def close(self) -> None:
        """Deregister from the live set (idempotent)."""
        type(self)._live.discard(self)
