"""Span-aware sampling profiler with collapsed-stack (flamegraph) output.

Two complementary sources of flame data:

- :class:`SamplingProfiler` samples a live join thread via
  ``sys._current_frames()`` at a fixed interval and prefixes each Python
  stack with the tracer's current :attr:`span_stack`, so the flamegraph
  roots are the join's own phases (``join:amkdj;stage:aggressive;...``)
  rather than interpreter plumbing.  Activated by ``join --profile
  PATH``; costs nothing when off (no thread, no imports).
- :func:`flame_from_trace` folds a *recorded* trace's spans into
  collapsed stacks weighted by self-time, for ``python -m repro trace
  FILE --flame`` — no re-run needed, but only span granularity.

Both emit Brendan Gregg's collapsed format (``frame;frame;frame N`` per
line), directly consumable by ``flamegraph.pl`` / speedscope / inferno.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = ["SamplingProfiler", "flame_from_trace", "render_collapsed"]

#: Frames from these modules are interpreter/harness noise, not join work.
_SKIP_MODULES = ("repro.obs.profiler", "threading")


class SamplingProfiler:
    """Samples one thread's stack, attributed to tracer spans.

    Parameters
    ----------
    tracer:
        Object with a ``span_stack`` attribute (a :class:`Tracer`, the
        ``NULL_TRACER``, or ``None``).  Sampled names are read from
        whatever the stack holds at sample time; a torn read across the
        engine's begin/end costs one misattributed sample.
    interval_s:
        Sampling period; 5 ms ≈ 200 Hz keeps overhead well under 1%%
        for the pure-Python engines.
    target_ident:
        Thread ident to sample; defaults to the thread calling
        :meth:`start` (the join thread).
    """

    def __init__(
        self,
        tracer: Any = None,
        interval_s: float = 0.005,
        target_ident: int | None = None,
        max_depth: int = 64,
    ) -> None:
        self._tracer = tracer
        self.interval_s = max(float(interval_s), 0.001)
        self._target_ident = target_ident
        self._max_depth = max_depth
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.counts: dict[str, int] = {}
        self.samples = 0

    # -- sampling -------------------------------------------------------

    def _frame_names(self, frame: Any) -> list[str]:
        names: list[str] = []
        while frame is not None and len(names) < self._max_depth:
            code = frame.f_code
            module = frame.f_globals.get("__name__", "?")
            if not any(module.startswith(skip) for skip in _SKIP_MODULES):
                qualname = getattr(code, "co_qualname", code.co_name)
                names.append(f"{module}.{qualname}")
            frame = frame.f_back
        names.reverse()  # outermost first, flamegraph convention
        return names

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:
            return
        try:
            spans = list(getattr(self._tracer, "span_stack", ()) or ())
        except Exception:  # torn read under concurrent mutation
            spans = []
        stack = spans + self._frame_names(frame)
        if not stack:
            return
        key = ";".join(stack)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self._sample_once()
            except Exception:
                # A profiler crash must never take the join down.
                continue

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        if self._target_ident is None:
            self._target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- output ---------------------------------------------------------

    def collapsed(self) -> str:
        return render_collapsed(self.counts)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.collapsed(), encoding="utf-8")


def render_collapsed(counts: dict[str, int | float]) -> str:
    """Collapsed-stack text: one ``stack count`` line, sorted by stack."""
    lines = [
        f"{stack} {int(count)}"
        for stack, count in sorted(counts.items())
        if count > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def flame_from_trace(records: Iterable[dict[str, Any]]) -> dict[str, int]:
    """Fold recorded trace spans into collapsed stacks by self-time.

    Spans on each track are nested by interval containment (the same
    reconstruction Chrome's viewer does); each span contributes its
    *self* time — duration minus child durations — in microseconds to
    the stack path of its ancestors.  Tracks get a ``trackN`` root frame
    so they stay distinguishable.
    """
    from repro.obs.report import collect_spans

    spans = collect_spans(records)
    counts: dict[str, int] = {}
    by_track: dict[int, list[Any]] = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)
    for track, track_spans in sorted(by_track.items()):
        track_spans.sort(key=lambda s: (s.start, -(s.end - s.start)))
        # stack of (span, path, child_time) for open ancestors
        open_spans: list[list[Any]] = []
        epsilon = 1e-12

        def _close(entry: list[Any]) -> None:
            span, path, child_time = entry
            self_us = max(0, round(((span.end - span.start) - child_time) * 1e6))
            counts[path] = counts.get(path, 0) + max(self_us, 1)
            if open_spans:
                open_spans[-1][2] += span.end - span.start

        for span in track_spans:
            while open_spans and open_spans[-1][0].end <= span.start + epsilon:
                _close(open_spans.pop())
            parent_path = open_spans[-1][1] if open_spans else f"track{track}"
            open_spans.append([span, f"{parent_path};{span.name}", 0.0])
        while open_spans:
            _close(open_spans.pop())
    return counts
