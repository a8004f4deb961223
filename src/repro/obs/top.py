"""``python -m repro top STATUS_FILE`` — live terminal view of a join.

Tails the atomically-swapped status file a running join publishes
(``join --status-file PATH``, or implied by ``--metrics-port``) and
renders a small dashboard: progress bar with ETA, cutoff convergence,
and a per-worker table of heartbeat age, tasks done and local queue
depth.  Read-only — it shares nothing with the join but
the file, so it can run on another terminal, another user, or (with a
shared filesystem) another host.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, TextIO

from repro.obs.live import read_status

__all__ = ["render_status", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _fmt_cutoff(value: Any) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.4f}"
    return "inf"


def _progress_bar(fraction: float, width: int = 40) -> str:
    filled = int(round(min(max(fraction, 0.0), 1.0) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_status(status: dict[str, Any], width: int = 40) -> str:
    """One dashboard frame from one status snapshot."""
    lines: list[str] = []
    progress = status.get("progress") or {}
    algorithm = progress.get("algorithm") or "?"
    stage = progress.get("stage") or "-"
    state = "done" if progress.get("done") else "running"
    lines.append(
        f"repro join [{algorithm}] {state}  "
        f"stage={stage}  stages_done={progress.get('stages_done', 0)}"
    )
    fraction = float(progress.get("fraction") or 0.0)
    lines.append(
        f"{_progress_bar(fraction, width)} {fraction * 100:5.1f}%  "
        f"elapsed {_fmt_eta(status.get('elapsed_s'))}  "
        f"eta {_fmt_eta(progress.get('eta_s'))}"
    )
    lines.append(
        f"results {progress.get('produced', 0):,}/{progress.get('k', 0):,}  "
        f"work {progress.get('work_done', 0):,.0f}/"
        f"{progress.get('work_total', 0):,.0f}  "
        f"eDmax {_fmt_cutoff(progress.get('edmax'))}  "
        f"qDmax {_fmt_cutoff(progress.get('qdmax'))}"
    )
    workers = status.get("workers") or []
    if workers:
        lines.append("")
        lines.append(
            f"{'worker':>6}  {'beat':>6}  {'state':>5}  {'tasks':>7}  "
            f"{'depth':>5}"
        )
        for row in workers:
            age = row.get("heartbeat_age_s")
            beat = "-" if age is None else f"{age:.1f}s"
            state = "busy" if row.get("busy") else "idle"
            lines.append(
                f"{row.get('worker', '?'):>6}  {beat:>6}  {state:>5}  "
                f"{row.get('tasks_done', 0):>7.0f}  "
                f"{row.get('queue_depth', 0):>5.0f}"
            )
    metrics = status.get("metrics") or {}
    if isinstance(metrics, dict) and metrics:
        highlights = []
        for key in ("obs.queue.insertions", "obs.shm.tasks"):
            value = metrics.get(key)
            if isinstance(value, (int, float)):
                highlights.append(f"{key.removeprefix('obs.')}={value:,.0f}")
        if highlights:
            lines.append("")
            lines.append("metrics: " + "  ".join(highlights))
    return "\n".join(lines)


def run_top(
    path: str | Path,
    once: bool = False,
    interval_s: float = 0.5,
    out: TextIO | None = None,
    timeout_s: float = 30.0,
) -> int:
    """Tail a status file until the join reports done (or forever).

    ``once`` renders a single frame (used by tests and scripts); the
    interactive loop clears the screen between frames and exits 0 when
    the published progress flips to done, or 1 if the file never
    appears within ``timeout_s``.
    """
    out = out if out is not None else sys.stdout
    waited = 0.0
    while True:
        status = read_status(path)
        if status is None:
            if once:
                print(f"no status file at {path}", file=out)
                return 1
            if waited >= timeout_s:
                print(f"no status file at {path} after {timeout_s:.0f}s",
                      file=out)
                return 1
            time.sleep(interval_s)
            waited += interval_s
            continue
        frame = render_status(status)
        if once:
            print(frame, file=out)
            return 0
        print(f"{_CLEAR}{frame}", file=out, flush=True)
        if (status.get("progress") or {}).get("done"):
            return 0
        time.sleep(interval_s)
