"""Shared-memory attachment and worker telemetry for the parallel engine.

The flat struct-of-arrays tree layout itself — ``TreeLayout``,
``tree_image``, ``SharedTreeView``, ``TreeArena`` — lives in
:mod:`repro.kernels.arena` now, where the *sequential* flat hot path
imports it without touching any ``multiprocessing`` machinery.  This
module keeps the parts only the parallel engine's workers need:

- :func:`_mp_context` — the platform-safe start method for process
  workers;
- :class:`ArenaDescriptor` — the picklable ticket a spawned worker uses
  to attach to the parent's segment by name;
- :class:`AttachedArena` — the worker-side zero-copy attachment, with
  the Python 3.11 resource-tracker workaround (an attaching process
  must unregister the segment or the tracker unlinks it when that
  process exits, bpo-39959);
- per-worker live telemetry (:class:`WorkerTelemetry` /
  :class:`WorkerSlot`) and the :func:`active_segments` leak check.

The moved names are re-exported so existing imports keep working.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from typing import Any

from repro.kernels.arena import (  # noqa: F401  (re-exported)
    SHM_PREFIX,
    SharedTreeView,
    TreeArena,
    TreeLayout,
    _CoordBlock,
    _FIELDS,
    _segment_name,
    tree_image,
)


def _mp_context() -> multiprocessing.context.BaseContext:
    """Start method for process workers: fork on Linux, spawn elsewhere.

    Fork is the cheap path (workers inherit the parent's imports), but
    it is unsafe next to threads on macOS and is no longer the default
    anywhere but Linux; everywhere else — and on any platform where fork
    is unavailable — fall back to spawn, which the module-level worker
    function and the picklable :class:`ArenaDescriptor` support
    unchanged.
    """
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


@dataclass(frozen=True, slots=True)
class ArenaDescriptor:
    """Picklable ticket a process worker uses to attach zero-copy.

    ``tracker_pid`` is the creator's resource-tracker process: a worker
    that inherits the same tracker (fork) must *not* apply the
    bpo-39959 unregister workaround, or it would erase the creator's
    own registration.
    """

    segment: str
    layout_r: TreeLayout
    layout_s: TreeLayout
    tracker_pid: int | None = None


def _tracker_pid() -> int | None:
    """Pid of this process's shared-memory resource tracker, if any."""
    try:
        from multiprocessing.resource_tracker import _resource_tracker

        return _resource_tracker._pid
    except Exception:  # pragma: no cover - tracker internals moved
        return None


class AttachedArena:
    """A worker's zero-copy attachment to a parent's shm segment."""

    def __init__(self, descriptor: ArenaDescriptor) -> None:
        from multiprocessing import shared_memory

        self._shm = shared_memory.SharedMemory(name=descriptor.segment)
        # Python 3.11 registers *attaching* processes with the resource
        # tracker too; without this unregister a spawn-mode worker's own
        # tracker unlinks the parent's segment when the worker exits
        # (bpo-39959).  A forked worker shares the parent's tracker —
        # there the registration belongs to the parent and must stay.
        if _tracker_pid() != descriptor.tracker_pid:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        nr = descriptor.layout_r.nbytes
        ns = descriptor.layout_s.nbytes
        self.view_r = SharedTreeView(descriptor.layout_r, self._shm.buf[:nr])
        self.view_s = SharedTreeView(descriptor.layout_s, self._shm.buf[nr : nr + ns])

    def close(self) -> None:
        """Detach (never unlink — the segment is the parent's)."""
        try:
            self.view_r.release()
            self.view_s.release()
        except BufferError:  # pragma: no cover
            pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Per-worker live telemetry (heartbeat / steal / giveback / queue depth)
# ----------------------------------------------------------------------

#: Field order of one worker's telemetry slot.  ``heartbeat`` is a
#: ``time.time()`` stamp (0 = never beaten), ``busy`` is 0/1, the rest
#: are plain counters/gauges.
WORKER_FIELDS = (
    "heartbeat",
    "busy",
    "tasks_done",
    "steals",
    "givebacks",
    "queue_depth",
)

_WF = len(WORKER_FIELDS)


class WorkerTelemetry:
    """A flat double array of per-worker liveness gauges.

    One slot of :data:`WORKER_FIELDS` doubles per worker.  With an mp
    context the backing is a lock-free ``multiprocessing`` shared array
    (8-byte aligned doubles: a torn read across a store is a stale
    sample, never a crash — acceptable for a dashboard); without one it
    is a plain ``array('d')`` shared by reference between threads.

    Workers write through :class:`WorkerSlot`; the parent's live
    publisher reads :meth:`snapshot` on its own thread with no locks.
    """

    __slots__ = ("workers", "arr")

    def __init__(self, workers: int, ctx: Any = None) -> None:
        self.workers = workers
        if ctx is not None:
            self.arr = ctx.Array("d", workers * _WF, lock=False)
        else:
            import array

            self.arr = array.array("d", bytes(8 * workers * _WF))

    def slot(self, wid: int) -> "WorkerSlot":
        return WorkerSlot(self.arr, wid)

    def snapshot(self) -> list[dict[str, Any]]:
        """One JSON-safe row per worker, for the status file."""
        now = time.time()
        rows: list[dict[str, Any]] = []
        for wid in range(self.workers):
            base = wid * _WF
            beat = self.arr[base]
            rows.append(
                {
                    "worker": wid,
                    "heartbeat_age_s": (now - beat) if beat > 0.0 else None,
                    "busy": bool(self.arr[base + 1]),
                    "tasks_done": int(self.arr[base + 2]),
                    "steals": int(self.arr[base + 3]),
                    "givebacks": int(self.arr[base + 4]),
                    "queue_depth": int(self.arr[base + 5]),
                }
            )
        return rows


class WorkerSlot:
    """A worker's write handle into one :class:`WorkerTelemetry` slot.

    Every method is a handful of 8-byte array stores — cheap enough to
    call at heartbeat sites (task boundaries and control polls), never
    per candidate pair.
    """

    __slots__ = ("_arr", "_base")

    def __init__(self, arr, wid: int) -> None:
        self._arr = arr
        self._base = wid * _WF

    def beat(self, busy: bool, depth: int = 0) -> None:
        arr = self._arr
        base = self._base
        arr[base] = time.time()
        arr[base + 1] = 1.0 if busy else 0.0
        arr[base + 5] = float(depth)

    def task_done(self) -> None:
        self._arr[self._base + 2] += 1.0

    def stole(self) -> None:
        """The worker shed half its stack to a steal request."""
        self._arr[self._base + 3] += 1.0

    def gave_back(self) -> None:
        """The worker returned a whole prefetched task."""
        self._arr[self._base + 4] += 1.0


def active_segments(prefix: str = SHM_PREFIX) -> list[str]:
    """Names of live ``/dev/shm`` segments created by this module.

    Empty on platforms without ``/dev/shm``; the CI leak check and the
    fault-injection tests assert this is empty after every run.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return sorted(name for name in os.listdir(root) if name.startswith(prefix))
