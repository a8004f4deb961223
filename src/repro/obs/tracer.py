"""Structured event tracer for join runs.

The paper's argument is temporal — the aggressive stage does most of the
work under the estimated cutoff and the compensation stage stays small —
so the tracer records *when* things happen, not just how often.  Three
event shapes cover everything the engines need:

- **spans** (``begin``/``end`` pairs, or pre-timed ``complete`` events)
  nest naturally: join → stage → node-expansion batch.  Chrome's trace
  viewer reconstructs the nesting from the per-track begin/end stack;
- **point events** mark instants: an eDmax update (with old/new/actual
  values), a qDmax tightening, a queue split/spill/swap-in, a
  compensation resume, a boundary-strip widening;
- **counter events** carry numeric snapshots (per-stage work deltas).

Every record is a plain dict ``{"ts", "ph", "name", "track", "args"}``
(plus ``"dur"`` for complete events) with ``ts`` in seconds relative to
the tracer's origin.  ``ph`` follows the Chrome ``trace_event`` phase
letters (``B``/``E``/``X``/``i``/``C``) so the export is a direct
mapping; see :mod:`repro.obs.sinks`.

The default tracer is :data:`NULL_TRACER`, whose every method is a
no-op and whose ``enabled`` flag lets hot paths skip argument
construction entirely — a disabled run does no timing calls and
allocates nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["NULL_TRACER", "NullTracer", "SpanBatcher", "Tracer"]


class _NullSpan:
    """Reusable no-op context manager returned by ``NullTracer.span``."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


class _NullBatcher:
    """No-op stand-in for :class:`SpanBatcher` on a disabled tracer."""

    __slots__ = ()

    def tick(self, **adds: float) -> None:
        return None

    def flush(self) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_BATCHER = _NullBatcher()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Engines branch on :attr:`enabled` before building event arguments,
    so the per-operation cost of a disabled run is at most one attribute
    check.
    """

    enabled = False

    #: Immutable empty stack: the sampling profiler reads ``span_stack``
    #: off whatever tracer the run holds without a type check.
    span_stack: tuple[str, ...] = ()

    def begin(self, name: str, **args: Any) -> None:
        return None

    def end(self, name: str, **args: Any) -> None:
        return None

    def event(self, name: str, **args: Any) -> None:
        return None

    def counter(self, name: str, **values: float) -> None:
        return None

    def complete(self, name: str, start: float, duration: float, **args: Any) -> None:
        return None

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def batcher(self, name: str, every: int = 64) -> _NullBatcher:
        return _NULL_BATCHER

    def now(self) -> float:
        return 0.0

    def emit(self, record: dict[str, Any]) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Emits timestamped event records to one or more sinks.

    Parameters
    ----------
    sinks:
        Objects with ``write(record)`` and ``close()``; see
        :mod:`repro.obs.sinks`.

    Every record is stamped ``"track": 0``: the joins trace on one
    track, the calling thread's.
    """

    enabled = True

    def __init__(self, sinks: list[Any]) -> None:
        self._sinks = list(sinks)
        self._origin = time.perf_counter()
        self._closed = False
        #: Names of the currently open spans, outermost first.  The
        #: sampling profiler snapshots this from its own thread to
        #: attribute stack samples to join stages; maintenance is two
        #: list ops per span, and torn reads cost one misattributed
        #: sample at worst.
        self.span_stack: list[str] = []

    # -- primitives -----------------------------------------------------

    def now(self) -> float:
        """Seconds since the tracer's origin."""
        return time.perf_counter() - self._origin

    def emit(self, record: dict[str, Any]) -> None:
        """Write one pre-built record to every sink (re-emission hook)."""
        for sink in self._sinks:
            sink.write(record)

    def _record(self, ph: str, name: str, args: dict[str, Any]) -> None:
        self.emit(
            {"ts": self.now(), "ph": ph, "name": name, "track": 0,
             "args": args}
        )

    # -- event API ------------------------------------------------------

    def begin(self, name: str, **args: Any) -> None:
        """Open a span; nest freely, close with :meth:`end` (LIFO)."""
        self.span_stack.append(name)
        self._record("B", name, args)

    def end(self, name: str, **args: Any) -> None:
        """Close the innermost open span named ``name``."""
        stack = self.span_stack
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                break
        self._record("E", name, args)

    def event(self, name: str, **args: Any) -> None:
        """A point-in-time event."""
        self._record("i", name, args)

    def counter(self, name: str, **values: float) -> None:
        """A numeric snapshot (rendered as counter tracks in Perfetto)."""
        self._record("C", name, values)

    def complete(self, name: str, start: float, duration: float, **args: Any) -> None:
        """A span with explicit timing (used by :class:`SpanBatcher`)."""
        self.emit(
            {"ts": start, "ph": "X", "name": name, "track": 0,
             "dur": duration, "args": args}
        )

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Context-manager sugar over :meth:`begin`/:meth:`end`."""
        self.begin(name, **args)
        try:
            yield
        finally:
            self.end(name)

    def batcher(self, name: str, every: int = 64) -> "SpanBatcher":
        """A :class:`SpanBatcher` emitting batch spans on this tracer."""
        return SpanBatcher(self, name, every)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Flush and close every sink; idempotent."""
        if self._closed:
            return
        self._closed = True
        for sink in self._sinks:
            sink.close()


class SpanBatcher:
    """Aggregates many small units of work into one span per batch.

    A k=1000 run expands tens of thousands of node pairs; one span each
    would dwarf the interesting events.  Engines call :meth:`tick` once
    per expansion instead; every ``every`` ticks (and at :meth:`flush`)
    one ``X`` span covering the batch is emitted, its args carrying the
    summed per-tick values plus the tick count.
    """

    __slots__ = ("_tracer", "_name", "_every", "_count", "_start", "_sums")

    def __init__(self, tracer: Tracer, name: str, every: int = 64) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self._tracer = tracer
        self._name = name
        self._every = every
        self._count = 0
        self._start = 0.0
        self._sums: dict[str, float] = {}

    def tick(self, **adds: float) -> None:
        """Account one unit of work; numeric kwargs are summed."""
        if self._count == 0:
            self._start = self._tracer.now()
        self._count += 1
        for key, value in adds.items():
            self._sums[key] = self._sums.get(key, 0.0) + value
        if self._count >= self._every:
            self.flush()

    def flush(self) -> None:
        """Emit the pending batch span, if any ticks are buffered."""
        if self._count == 0:
            return
        duration = self._tracer.now() - self._start
        self._tracer.complete(
            self._name, self._start, duration, count=self._count, **self._sums
        )
        self._count = 0
        self._sums = {}
