"""Observability for join runs: structured traces and a metrics registry.

The subsystem has two planes, all optional and all off by default.

Post-mortem (recorded during the run, rendered after):

- :mod:`repro.obs.tracer` — the event tracer (nested spans, point
  events, counters) with the zero-overhead :data:`NULL_TRACER` default;
- :mod:`repro.obs.sinks` — JSONL streaming, Chrome ``trace_event``
  export (``chrome://tracing`` / Perfetto) and in-memory collection;
- :mod:`repro.obs.metrics` — counters/gauges/histograms whose snapshot
  lands in ``JoinStats.extra`` and therefore merges across workers.

Live (observable while the join executes):

- :mod:`repro.obs.live` — progress/ETA estimation and the periodic
  status-file publisher (``--status-file``);
- :mod:`repro.obs.export` — Prometheus text rendering and the
  ``--metrics-port`` scrape endpoint (``/metrics``, ``/progress``);
- :mod:`repro.obs.profiler` — span-aware sampling profiler emitting
  collapsed stacks (``--profile``, ``trace --flame``);
- :mod:`repro.obs.top` — the ``python -m repro top`` terminal view.

Wiring: ``JoinConfig(trace_path=...)`` (or ``--trace`` on the CLI)
builds a tracer per run; ``JoinContext`` hands it to the
``Instruments`` choke point and the main queue, and the engines emit
through it.  ``python -m repro trace FILE`` renders a recorded trace
(:mod:`repro.obs.report`).  The event schema is documented in
``docs/internals.md``.
"""

from repro.obs.live import (
    JoinProgress,
    LivePlane,
    LivePublisher,
    ProgressEstimator,
    read_status,
)
from repro.obs.metrics import (
    GAUGE_KEY_SUFFIX,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StageMeter,
    snapshot_percentiles,
)
from repro.obs.report import load_trace, render_report
from repro.obs.sinks import ChromeTraceSink, CollectSink, JsonlSink, open_sink
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanBatcher, Tracer

__all__ = [
    "ChromeTraceSink",
    "CollectSink",
    "Counter",
    "GAUGE_KEY_SUFFIX",
    "Gauge",
    "Histogram",
    "JoinProgress",
    "JsonlSink",
    "LivePlane",
    "LivePublisher",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProgressEstimator",
    "SpanBatcher",
    "StageMeter",
    "Tracer",
    "load_trace",
    "open_sink",
    "read_status",
    "render_report",
    "snapshot_percentiles",
    "tracer_for",
]


def tracer_for(path, fmt=None) -> Tracer:
    """A tracer writing to ``path`` (format inferred from extension)."""
    return Tracer([open_sink(path, fmt)])
