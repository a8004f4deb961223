"""Trace sinks: where :class:`~repro.obs.tracer.Tracer` records land.

Three sinks cover the use cases:

- :class:`JsonlSink` streams one JSON object per line — cheap to write,
  trivially parsed back by ``python -m repro trace`` and by tests;
- :class:`ChromeTraceSink` buffers records and writes one Chrome
  ``trace_event`` JSON document on close, loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev — each track becomes
  a thread row, spans nest, counters chart;
- :class:`CollectSink` appends records to an in-memory list, for
  in-process consumers and tests.

:func:`open_sink` picks the format from the file extension (``.json`` →
Chrome trace, anything else → JSONL) unless told explicitly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = ["ChromeTraceSink", "CollectSink", "JsonlSink", "open_sink"]


class JsonlSink:
    """Streams records to ``path``, one compact JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = open(self.path, "w", encoding="utf-8")

    def write(self, record: dict[str, Any]) -> None:
        # Strict JSON lines: non-finite floats (legal in Python's json,
        # not in JSON) become their repr, same as the Chrome export.
        if record.get("args"):
            record = {**record, "args": _json_safe_args(record["args"])}
        json.dump(record, self._file, separators=(",", ":"),
                  default=_json_safe, allow_nan=False)
        self._file.write("\n")

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class ChromeTraceSink:
    """Buffers records; writes a ``chrome://tracing`` JSON file on close.

    The mapping is direct: our ``ph`` letters are Chrome's, ``track``
    becomes the thread id (all on one process), and timestamps convert
    from seconds to the format's microseconds.  A thread-name metadata
    event labels track 0 ``main`` in Perfetto.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: list[dict[str, Any]] = []
        self._closed = False

    def write(self, record: dict[str, Any]) -> None:
        self._records.append(record)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        events: list[dict[str, Any]] = [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": 0,
                "args": {"name": "main"},
            }
        ]
        for record in self._records:
            event: dict[str, Any] = {
                "ph": record["ph"],
                "name": record["name"],
                "pid": 0,
                "tid": record.get("track", 0),
                "ts": record["ts"] * 1e6,
                "args": _json_safe_args(record.get("args", {})),
            }
            if record["ph"] == "X":
                event["dur"] = record.get("dur", 0.0) * 1e6
            elif record["ph"] == "i":
                event["s"] = "t"  # instant scoped to its thread row
            events.append(event)
        with open(self.path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


class CollectSink:
    """Accumulates records in memory (worker shipping, tests)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        return None


def open_sink(path: str | Path, fmt: str | None = None) -> JsonlSink | ChromeTraceSink:
    """Build the sink for ``path``: explicit ``fmt`` or by extension.

    ``fmt`` is ``"jsonl"`` or ``"chrome"``; ``None`` infers Chrome trace
    for ``.json`` files and JSONL otherwise.
    """
    if fmt is None:
        fmt = "chrome" if Path(path).suffix == ".json" else "jsonl"
    if fmt == "chrome":
        return ChromeTraceSink(path)
    if fmt == "jsonl":
        return JsonlSink(path)
    raise ValueError(f"unknown trace format {fmt!r}; pick 'jsonl' or 'chrome'")


def _json_safe(value: Any) -> Any:
    """Fallback serializer: JSON has no inf/nan; stringify the rest."""
    return repr(value)


def _json_safe_args(args: dict[str, Any]) -> dict[str, Any]:
    """Replace non-finite floats (JSON-invalid) for the Chrome export."""
    safe: dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            safe[key] = repr(value)
        else:
            safe[key] = value
    return safe
