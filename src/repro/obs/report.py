"""Render a recorded trace as terminal reports.

``python -m repro trace FILE`` feeds a trace file — either the JSONL
stream or the Chrome ``trace_event`` export, auto-detected — through
these renderers:

- a **stage timeline**: every span (join → stage → expansion batches),
  grouped by track, drawn as a bar over the run's time range;
- an **eDmax convergence report**: the table of every eDmax update
  (old/new/actual and the reason) plus an ASCII chart of the estimated
  and safe cutoffs closing in on each other over time, reusing
  :func:`repro.workloads.plots.ascii_chart`;
- an **event summary**: point-event counts by name;
- a **distribution summary**: p50/p95/p99 (derived from the frexp
  bucket counts, see :func:`repro.obs.metrics.snapshot_percentiles`)
  for every histogram in the run's final metrics snapshot — the runs
  record one ``metrics:final`` counter event at close so the trace file
  is self-contained.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

__all__ = [
    "Span",
    "collect_spans",
    "load_trace",
    "render_distributions",
    "render_report",
]

#: Expansion-batch spans collapse to one summary line per track past this.
MAX_BATCH_ROWS = 8


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a trace file in either format into normalized records.

    Normalized shape: ``{"ts": seconds, "ph", "name", "track", "args"}``
    plus ``"dur"`` (seconds) on complete events — the same records the
    tracer emitted, whichever sink wrote them.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        document = json.loads(text)
        records = []
        for event in document["traceEvents"]:
            if event.get("ph") == "M":
                continue
            record = {
                "ts": event.get("ts", 0.0) / 1e6,
                "ph": event["ph"],
                "name": event["name"],
                "track": event.get("tid", 0),
                "args": event.get("args", {}),
            }
            if event["ph"] == "X":
                record["dur"] = event.get("dur", 0.0) / 1e6
            records.append(record)
        return records
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: not valid JSONL ({exc})") from exc
    return records


class Span:
    """One reconstructed span: name, track, start and end seconds."""

    __slots__ = ("name", "track", "start", "end", "args")

    def __init__(
        self, name: str, track: int, start: float, end: float, args: dict[str, Any]
    ) -> None:
        self.name = name
        self.track = track
        self.start = start
        self.end = end
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


def collect_spans(records: list[dict[str, Any]]) -> list[Span]:
    """Match begin/end pairs per track and convert complete events.

    Unclosed begins (a trace cut short) are closed at the last timestamp
    seen, so a partial trace still renders.
    """
    last_ts = max((record["ts"] for record in records), default=0.0)
    spans: list[Span] = []
    stacks: dict[int, list[Span]] = {}
    for record in records:
        track = record.get("track", 0)
        if record["ph"] == "B":
            span = Span(record["name"], track, record["ts"], last_ts,
                        record.get("args", {}))
            stacks.setdefault(track, []).append(span)
            spans.append(span)
        elif record["ph"] == "E":
            stack = stacks.get(track, [])
            for index in range(len(stack) - 1, -1, -1):
                if stack[index].name == record["name"]:
                    stack.pop(index).end = record["ts"]
                    break
        elif record["ph"] == "X":
            spans.append(
                Span(record["name"], track, record["ts"],
                     record["ts"] + record.get("dur", 0.0),
                     record.get("args", {}))
            )
    spans.sort(key=lambda span: (span.track, span.start, -span.duration))
    return spans


def _bar(span: Span, t0: float, t1: float, width: int) -> str:
    scale = (t1 - t0) or 1.0
    lo = int((span.start - t0) / scale * width)
    hi = int(math.ceil((span.end - t0) / scale * width))
    lo = min(max(lo, 0), width - 1)
    hi = min(max(hi, lo + 1), width)
    return " " * lo + "#" * (hi - lo) + " " * (width - hi)


def render_timeline(records: list[dict[str, Any]], width: int = 48) -> str:
    """The per-track span chart: one bar per span, batches summarized."""
    spans = collect_spans(records)
    if not spans:
        return "stage timeline: no spans recorded"
    t0 = min(span.start for span in spans)
    t1 = max(span.end for span in spans)
    lines = [f"stage timeline ({(t1 - t0) * 1e3:.2f} ms total)"]
    name_width = max(len(span.name) for span in spans)
    current_track: int | None = None
    batch_rows = 0
    batch_skipped = 0
    for span in spans:
        if span.track != current_track:
            if batch_skipped:
                lines.append(f"    ... {batch_skipped} more batch span(s)")
            current_track = span.track
            batch_rows = 0
            batch_skipped = 0
            lines.append(f"track {span.track}")
        is_batch = span.name.startswith("expand")
        if is_batch:
            batch_rows += 1
            if batch_rows > MAX_BATCH_ROWS:
                batch_skipped += 1
                continue
        lines.append(
            f"  {span.name.ljust(name_width)} "
            f"{span.start * 1e3:9.2f}–{span.end * 1e3:<9.2f} ms "
            f"|{_bar(span, t0, t1, width)}|"
        )
    if batch_skipped:
        lines.append(f"    ... {batch_skipped} more batch span(s)")
    return "\n".join(lines)


def render_edmax(records: list[dict[str, Any]], width: int = 60) -> str:
    """Convergence table + chart of eDmax updates and qDmax tightening."""
    # Imported here, not at module level: workloads pulls in the engine
    # stack, which itself imports repro.obs — the render path is the
    # only place the two meet.
    from repro.workloads.plots import ascii_chart
    from repro.workloads.tables import format_table

    edmax_rows = []
    chart_rows = []
    for record in records:
        args = record.get("args", {})
        if record["ph"] != "i":
            continue
        if record["name"] == "edmax":
            edmax_rows.append(
                {
                    "ms": record["ts"] * 1e3,
                    "track": record.get("track", 0),
                    "reason": args.get("reason", ""),
                    "old": _num(args.get("old")),
                    "new": _num(args.get("new")),
                    "actual": _num(args.get("actual")),
                }
            )
            chart_rows.append(
                {"ms": record["ts"] * 1e3, "value": _num(args.get("new")),
                 "series": "eDmax"}
            )
        elif record["name"] == "qdmax":
            chart_rows.append(
                {"ms": record["ts"] * 1e3, "value": _num(args.get("new")),
                 "series": "qDmax"}
            )
    if not edmax_rows and not chart_rows:
        return "eDmax convergence: no cutoff events recorded"
    parts = []
    if edmax_rows:
        parts.append(
            format_table(
                edmax_rows,
                columns=["ms", "track", "reason", "old", "new", "actual"],
                title="eDmax updates",
            )
        )
    if chart_rows:
        parts.append(
            ascii_chart(
                chart_rows, x="ms", y="value", series="series",
                title="cutoff convergence", width=width,
            )
        )
    return "\n\n".join(parts)


def render_events(records: list[dict[str, Any]]) -> str:
    """Point-event counts by name (the queue/compensation telemetry)."""
    from repro.workloads.tables import format_table

    counts: dict[str, int] = {}
    for record in records:
        if record["ph"] == "i":
            counts[record["name"]] = counts.get(record["name"], 0) + 1
    if not counts:
        return "events: none recorded"
    rows = [
        {"event": name, "count": count}
        for name, count in sorted(counts.items(), key=lambda kv: -kv[1])
    ]
    return format_table(rows, columns=["event", "count"], title="point events")


def render_distributions(records: list[dict[str, Any]]) -> str:
    """Histogram percentiles from the run's final metrics snapshot.

    Replaces the old mean-only view: a p99 queue depth or result
    distance says far more about a run's shape than its average.  Reads
    the last ``metrics:final`` counter event (emitted when a metrics-
    collecting run closes); traces recorded without metrics render a
    one-line placeholder.
    """
    from repro.obs.metrics import histogram_names, snapshot_percentiles
    from repro.workloads.tables import format_table

    snapshot: dict[str, Any] | None = None
    for record in records:
        if record.get("ph") == "C" and record.get("name") == "metrics:final":
            snapshot = {
                key: _num(value)
                for key, value in record.get("args", {}).items()
            }
    if not snapshot:
        return "distributions: no final metrics snapshot in trace"
    rows = []
    for name in histogram_names(snapshot):
        percentiles = snapshot_percentiles(snapshot, name)
        if percentiles is None:
            continue
        count = snapshot[f"{name}.count"]
        total = snapshot.get(f"{name}.sum", 0.0)
        rows.append(
            {
                "histogram": name,
                "count": int(count),
                "mean": total / count if count else 0.0,
                **percentiles,
            }
        )
    if not rows:
        return "distributions: no histograms recorded"
    return format_table(
        rows,
        columns=["histogram", "count", "mean", "p50", "p95", "p99"],
        title="distributions (bucket-interpolated percentiles)",
    )


def render_report(path: str | Path, width: int = 48) -> str:
    """The full ``python -m repro trace`` report for one trace file."""
    records = load_trace(path)
    header = f"trace {path}: {len(records)} event(s)"
    return "\n\n".join(
        [
            header,
            render_timeline(records, width=width),
            render_edmax(records),
            render_events(records),
            render_distributions(records),
        ]
    )


def _num(value: Any) -> float | str:
    """Args may carry repr'd non-finite floats (JSON-safe form)."""
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return "" if value is None else str(value)
