"""One stage of the parallel engine's bounded sweep: traversal and runtimes.

The stage loop lives in :mod:`repro.parallel.engine`;
this module holds what runs inside one stage:

- the **block traversal** over the arena's node blocks — :func:`_expand`
  crosses two node blocks under the cap with the batched kernels,
  :func:`_run_pairs` drains a DFS stack of candidate node pairs
  closest-first, and :func:`_build_frontier` splits ``(root, root)``
  into cost-model-sized tasks;
- the **worker loop** (:func:`_worker`) — a forked process that reads
  the parent's arena through the memory pages fork shares with it,
  drains the tasks it is sent and flushes result batches, with its
  live telemetry (:class:`WorkerTelemetry` / :class:`WorkerSlot`);
- the **parent scheduler** (:class:`_StageRuntime`,
  :func:`_run_stage_pool`) — dispatch with prefetch, batch commits,
  liveness and per-worker timeouts — and the inline drain
  (:func:`_drain_inline`) that runs every task in the calling thread
  when no process is started, and absorbs the leftovers when every
  worker died.

Resilience: a worker that crashes, is killed, times out (also before it
ever came up), or reports an injected fault has its uncommitted buffers
discarded and its tasks (assigned *and* prefetched) re-enqueued for the
survivors.  The pair-keyed bound makes re-runs safe: re-discovered
pairs are rejected at commit, so neither the answer nor the cutoff can
be corrupted.
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing
import queue as queue_mod
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.planesweep import sweeping_index
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.kernels import resolve_backend
from repro.kernels.arena import NodeBlock, TreeArena
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.resilience.faults import trip_worker_faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import JoinConfig
    from repro.resilience.deadline import Deadline, NullDeadline

#: Result pairs a worker buffers before flushing a batch to the parent.
FLUSH_PAIRS = 4096

#: Expansions between a worker's control polls (stop requests and
#: prefetched tasks; this also bounds batch-flush latency).
POLL_EXPANSIONS = 8

#: Hard ceiling on the initial frontier size (adaptive splitting stops
#: here even if estimates stay above threshold).
MAX_TASKS = 512

#: Tasks queued per process worker ahead of completion, so a worker
#: rolls straight into its next task instead of idling one parent
#: round-trip per task (the latency shows: task count scales with
#: worker count, and so would the stalls).
PREFETCH = 2


def _pack(triples: list[tuple[float, int, int]]):
    """Flatten ``(dist, a, b)`` triples into one ``array('d')``.

    Workers ship every result batch through a pickling queue; one
    flat double array pickles as a single buffer — two orders of
    magnitude cheaper than a list of tuples.  Ids are exact in doubles
    (they are object indices, nowhere near 2**53).
    """
    import array

    flat = array.array("d", bytes(24 * len(triples)))
    pos = 0
    for dist, a, b in triples:
        flat[pos] = dist
        flat[pos + 1] = a
        flat[pos + 2] = b
        pos += 3
    return flat


def _unpack(payload) -> list[tuple[float, int, int]]:
    """Inverse of :func:`_pack`."""
    return [
        (payload[t], int(payload[t + 1]), int(payload[t + 2]))
        for t in range(0, len(payload), 3)
    ]


@dataclass(slots=True)
class SweepCounters:
    """Work counters one traversal accumulates (parent or worker side)."""

    real: int = 0
    axis: int = 0
    nodes: int = 0
    batches: int = 0
    batched_pairs: int = 0
    pushes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "real": self.real,
            "axis": self.axis,
            "nodes": self.nodes,
            "batches": self.batches,
            "batched_pairs": self.batched_pairs,
            "pushes": self.pushes,
        }

    def absorb(self, other: dict[str, int]) -> None:
        self.real += other["real"]
        self.axis += other["axis"]
        self.nodes += other["nodes"]
        self.batches += other["batches"]
        self.batched_pairs += other["batched_pairs"]
        self.pushes += other["pushes"]


class _Stop(Exception):
    """Unwinds a worker out of a task when the parent says stop."""


# ----------------------------------------------------------------------
# Block traversal over the arena's node blocks
# ----------------------------------------------------------------------


def _charge_cross(
    rect_r: Rect, rect_s: Rect, cap: float,
    in_x: int, in_y: int, n_r: int, n_s: int, ctr: SweepCounters,
) -> None:
    """Charge one block cross like the sequential sweep would.

    The sweep picks the axis with the smaller sweeping index (Section
    3.2) and computes a real distance per in-window pair, scanning each
    anchor once; the full-matrix arithmetic the kernel actually did is
    uncharged overshoot, exactly like a sweep plan overshooting its
    stop position.
    """
    if sweeping_index(rect_r, rect_s, 0, cap) <= sweeping_index(rect_r, rect_s, 1, cap):
        ctr.real += in_x
    else:
        ctr.real += in_y
    ctr.axis += n_r + n_s
    ctr.batches += 1
    ctr.batched_pairs += n_r * n_s


def _expand(
    blocks_r: dict[int, NodeBlock], blocks_s: dict[int, NodeBlock],
    nr: int, ns: int, cap: float, kern, ctr: SweepCounters,
    out: list[tuple[float, int, int]], pushes: list[tuple[float, int, int]],
) -> None:
    """Expand one candidate node pair under ``cap``.

    Appends qualifying object pairs to ``out`` and surviving child node
    pairs (with their push-time mindist) to ``pushes``.  The descent is
    level-synchronized: equal levels cross both child blocks in one
    kernel call, unequal levels descend only the deeper side.
    """
    node_r = blocks_r[nr]
    node_s = blocks_s[ns]
    ctr.nodes += 2
    if node_r.level == node_s.level:
        refs_r, refs_s = node_r.refs, node_s.refs
        rows, cols, dists, in_x, in_y = kern.cross_within(
            node_r.rects, node_s.rects, cap
        )
        _charge_cross(
            node_r.mbr, node_s.mbr, cap, in_x, in_y, len(refs_r), len(refs_s), ctr
        )
        if rows:
            (out if node_r.level == 0 else pushes).extend(
                zip(dists, [refs_r[i] for i in rows], [refs_s[j] for j in cols])
            )
    elif node_s.level > node_r.level:
        refs_s = node_s.refs
        hits = kern.block_within(node_r.mbr, node_s.rects, cap)
        ctr.real += len(refs_s)
        ctr.batches += 1
        ctr.batched_pairs += len(refs_s)
        for j, dist in hits:
            pushes.append((dist, nr, refs_s[j]))
    else:
        refs_r = node_r.refs
        hits = kern.block_within(node_s.mbr, node_r.rects, cap)
        ctr.real += len(refs_r)
        ctr.batches += 1
        ctr.batched_pairs += len(refs_r)
        for i, dist in hits:
            pushes.append((dist, refs_r[i], ns))


def _desc_dist(item: tuple[float, int, int]) -> float:
    return -item[0]


def _run_pairs(
    blocks_r: dict[int, NodeBlock], blocks_s: dict[int, NodeBlock],
    stack: list[tuple[float, int, int]],
    cap_fn: Callable[[], float], kern, ctr: SweepCounters,
    out: list[tuple[float, int, int]],
    control: Callable[[list[tuple[float, int, int]]], None] | None = None,
) -> None:
    """Drain a DFS stack of ``(mindist, node_r, node_s)`` pairs.

    Pushes are sorted farthest-first so the stack pops closest-first —
    confirmed pairs arrive in roughly ascending distance, which is what
    makes the batched cutoff exchange tighten quickly.  ``control`` runs
    every :data:`POLL_EXPANSIONS` expansions (stop polls, batch
    flushing, deadline checks).
    """
    expansions = 0
    pushes: list[tuple[float, int, int]] = []
    while stack:
        dist, nr, ns = stack.pop()
        cap = cap_fn()
        if dist > cap:
            continue
        _expand(blocks_r, blocks_s, nr, ns, cap, kern, ctr, out, pushes)
        if pushes:
            if len(pushes) > 1:
                pushes.sort(key=_desc_dist)
            stack.extend(pushes)
            ctr.pushes += len(pushes)
            pushes = []
        expansions += 1
        if control is not None and expansions % POLL_EXPANSIONS == 0:
            control(stack)


def _est_pairs(node_r: NodeBlock, node_s: NodeBlock, cap: float) -> float:
    """Estimated candidate pairs under a task: subtree counts times the
    fraction of S's box the cap-grown R box overlaps (crude, but only
    task granularity depends on it)."""
    r, s = node_r.mbr, node_s.mbr
    ox = min(r.xmax + cap, s.xmax) - max(r.xmin - cap, s.xmin)
    oy = min(r.ymax + cap, s.ymax) - max(r.ymin - cap, s.ymin)
    if ox <= 0.0 or oy <= 0.0:
        return 0.0
    fx = min(1.0, ox / max(s.xmax - s.xmin, 1e-12))
    fy = min(1.0, oy / max(s.ymax - s.ymin, 1e-12))
    return float(node_r.count) * float(node_s.count) * fx * fy


def _build_frontier(
    arena: TreeArena, delta: float,
    threshold: float, kern, ctr: SweepCounters,
    out: list[tuple[float, int, int]], metrics: MetricsRegistry,
) -> list[tuple[float, int, int]]:
    """Adaptively split ``(root, root)`` into the initial task list.

    Pops the largest-estimate pair and splits it (one block expansion)
    until every task's estimate is under ``threshold``, both sides are
    leaves, or :data:`MAX_TASKS` is reached.  Object pairs surfacing
    during splitting (leaf trees) land in ``out`` directly.  Returned
    tasks are sorted closest-first for dispatch.
    """
    blocks_r, blocks_s = arena.blocks_r, arena.blocks_s
    root_r, root_s = arena.root_r, arena.root_s
    root_dist = min_distance(blocks_r[root_r].mbr, blocks_s[root_s].mbr)
    ctr.real += 1
    if root_dist > delta:
        return []
    seq = itertools.count()
    heap = [(-_est_pairs(blocks_r[root_r], blocks_s[root_s], delta), next(seq),
             root_dist, root_r, root_s)]
    tasks: list[tuple[float, int, int]] = []
    splits = 0
    while heap:
        neg_est, _, dist, nr, ns = heapq.heappop(heap)
        if (
            -neg_est <= threshold
            or (blocks_r[nr].level == 0 and blocks_s[ns].level == 0)
            or len(tasks) + len(heap) >= MAX_TASKS
        ):
            tasks.append((dist, nr, ns))
            continue
        pushes: list[tuple[float, int, int]] = []
        _expand(blocks_r, blocks_s, nr, ns, delta, kern, ctr, out, pushes)
        splits += 1
        for child in pushes:
            estimate = _est_pairs(blocks_r[child[1]], blocks_s[child[2]], delta)
            heapq.heappush(heap, (-estimate, next(seq), *child))
    if splits:
        metrics.counter("shm.splits").inc(float(splits))
    tasks.sort(key=lambda t: t[0])
    return tasks


# ----------------------------------------------------------------------
# Forked workers and their live telemetry
# ----------------------------------------------------------------------


def _fork_context() -> multiprocessing.context.BaseContext | None:
    """The ``fork`` start method on Linux, else ``None``.

    A forked worker reads the parent's arena through the memory pages
    fork shares with it, so nothing is copied or pickled per join.  Fork
    is unsafe next to threads on macOS and is no longer the default
    anywhere but Linux; there, and wherever fork is unavailable, the
    engine drains inline instead of starting processes.
    """
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


#: Field order of one worker's telemetry slot.  ``heartbeat`` is a
#: ``time.time()`` stamp (0 = never beaten), ``busy`` is 0/1, the rest
#: are a counter and a gauge.
WORKER_FIELDS = ("heartbeat", "busy", "tasks_done", "queue_depth")

_WF = len(WORKER_FIELDS)


class WorkerTelemetry:
    """A flat double array of per-worker liveness gauges.

    One slot of :data:`WORKER_FIELDS` doubles per worker, in a lock-free
    ``multiprocessing`` shared array made by ``ctx`` (8-byte aligned
    doubles: a torn read across a store is a stale sample, never a
    crash — acceptable for a dashboard).

    Workers write through :class:`WorkerSlot`; the parent's live
    publisher reads :meth:`snapshot` on its own thread with no locks.
    """

    __slots__ = ("workers", "arr")

    def __init__(self, workers: int, ctx: Any) -> None:
        self.workers = workers
        self.arr = ctx.Array("d", workers * _WF, lock=False)

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
                    "queue_depth": int(self.arr[base + 3]),
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
        arr[base + 3] = float(depth)

    def task_done(self) -> None:
        self._arr[self._base + 2] += 1.0


def _worker(
    wid: int,
    arena: TreeArena,
    inbox,
    outbox,
    cutoff_cell,
    delta: float,
    fault_plan,
    telemetry=None,
) -> None:
    """One forked worker: drain the tasks the parent sends until ``stop``.

    ``arena`` is the parent's own, inherited through fork: the worker
    reads the parent's node blocks in place.  All result/bound exchange is
    batched: results flush every :data:`FLUSH_PAIRS` pairs (and at task
    end), the cutoff is re-read from the shared cell between
    expansions.  Any exception — injected crashes included — is
    reported as an ``error`` message; the parent treats it like a death
    and re-enqueues the worker's tasks.

    ``telemetry`` is the raw :class:`WorkerTelemetry` array (or None):
    the worker stamps its heartbeat/tasks/queue-depth slot at task
    boundaries and control polls — the same cadence as the other control
    work, never per candidate pair.
    """
    slot = WorkerSlot(telemetry, wid) if telemetry is not None else None
    try:
        if fault_plan is not None:
            trip_worker_faults(fault_plan, wid)
        blocks_r, blocks_s = arena.blocks_r, arena.blocks_s
        kern = resolve_backend()
        outbox.put(("ready", wid))
        if slot is not None:
            slot.beat(busy=False)
        #: Prefetched task messages pulled out of the inbox mid-task.
        backlog: deque = deque()

        def cap_now() -> float:
            return min(delta, cutoff_cell.value)

        while True:
            msg = backlog.popleft() if backlog else inbox.get()
            if msg[0] == "stop":
                break
            _, tid, dist, nr, ns = msg
            started = time.perf_counter()
            ctr = SweepCounters()
            out: list[tuple[float, int, int]] = []
            stack = [(dist, nr, ns)]
            if slot is not None:
                slot.beat(busy=True, depth=len(stack) + len(backlog))

            def control(live_stack: list[tuple[float, int, int]]) -> None:
                if slot is not None:
                    slot.beat(busy=True, depth=len(live_stack) + len(backlog))
                if len(out) >= FLUSH_PAIRS:
                    # The cutoff may have tightened since these pairs were
                    # found; pairs above it can never reach the top k
                    # (the cutoff never drops below the true k-th), so
                    # drop them here instead of shipping them.
                    cap = cap_now()
                    batch = [p for p in out if p[0] <= cap]
                    del out[:]
                    if batch:
                        outbox.put(("batch", wid, tid, _pack(batch)))
                while True:
                    try:
                        request = inbox.get_nowait()
                    except queue_mod.Empty:
                        break
                    if request[0] == "stop":
                        raise _Stop
                    # A prefetched assignment: park it for later.
                    backlog.append(request)

            _run_pairs(blocks_r, blocks_s, stack, cap_now, kern, ctr, out, control)
            busy_s = time.perf_counter() - started
            cap = cap_now()
            tail = [p for p in out if p[0] <= cap]
            outbox.put(("done", wid, tid, ctr.as_dict(), busy_s, _pack(tail)))
            if slot is not None:
                slot.task_done()
                slot.beat(busy=False, depth=len(backlog))
    except _Stop:
        pass
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            outbox.put(("error", wid, f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass


class _LocalCell:
    """The inline drain's stand-in for the shared cutoff ``Value``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = math.inf


# ----------------------------------------------------------------------
# Parent-side stage execution
# ----------------------------------------------------------------------


class _StageRuntime:
    """One stage's scheduler state: worker processes, queues, bookkeeping."""

    def __init__(
        self,
        workers: int,
        arena: TreeArena,
        delta: float,
        config: "JoinConfig",
        ctx: multiprocessing.context.BaseContext,
        telemetry: WorkerTelemetry | None = None,
    ) -> None:
        self.workers = workers
        self.procs: dict[int, Any] = {}
        self.inboxes: dict[int, Any] = {}
        self.dead: set[int] = set()
        tele_arr = telemetry.arr if telemetry is not None else None
        self.cell = ctx.Value("d", math.inf, lock=False)
        self.outbox = ctx.Queue()
        for wid in range(workers):
            inbox = ctx.Queue()
            # Fork hands the arena to the child as it is: not pickled.
            proc = ctx.Process(
                target=_worker,
                args=(
                    wid, arena, inbox, self.outbox, self.cell,
                    delta, config.fault_plan, tele_arr,
                ),
                daemon=True,
            )
            proc.start()
            self.procs[wid] = proc
            self.inboxes[wid] = inbox

    def kill(self, wid: int) -> None:
        """Hard-stop one worker."""
        self.dead.add(wid)
        try:
            self.procs[wid].terminate()
        except Exception:  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """Stop every worker; never block on a wedged one.

        A killed worker was terminated already, so its join returns as
        soon as it has exited; a live one that does not stop within a
        second is terminated.
        """
        for inbox in self.inboxes.values():
            try:
                inbox.put(("stop",))
            except Exception:  # pragma: no cover
                pass
        for handle in self.procs.values():
            handle.join(timeout=1.0)
            if handle.is_alive():
                try:
                    handle.terminate()
                except Exception:  # pragma: no cover
                    pass
        # Release the feeder threads so queue teardown cannot hang.
        self.outbox.cancel_join_thread()
        for inbox in self.inboxes.values():
            inbox.cancel_join_thread()


def _run_stage_pool(
    runtime: _StageRuntime,
    tasks: list[tuple[float, int, int]],
    commit: Callable[[list[tuple[float, int, int]]], None],
    ctr: SweepCounters,
    counters: Counter,
    metrics: MetricsRegistry,
    worker_busy: dict[int, float],
    config: "JoinConfig",
    deadline: "Deadline | NullDeadline",
    tracer: Tracer,
    work: dict[str, float],
) -> list[tuple[float, int, int]]:
    """Dispatch/commit loop for one stage on live workers.

    Returns the tasks left over if every worker died (the caller drains
    them inline); an empty list means the stage completed.  ``work``
    counts completed tasks under ``done`` for the live progress plane.
    ``deadline`` is the run's (``ctx.deadline``), checked once per
    dispatch round.

    With ``config.worker_timeout_s`` set, a worker times out when it
    holds work and stays silent that long, or when it has not come up
    that long after the start; the stage also waits for every worker to
    come up or time out, so none is left starting when it shuts down.
    Without it, a worker still not up when the stage's work is done is
    killed then (``worker_unstarted``).
    """
    pending: deque[tuple[float, int, int]] = deque(tasks)
    buffers: dict[int, list[tuple[float, int, int]]] = {}
    assignment: dict[int, tuple[float, int, int]] = {}
    outstanding: dict[int, deque[int]] = {w: deque() for w in range(runtime.workers)}
    ready: set[int] = set()
    last_life: dict[int, float] = {}
    tid_seq = itertools.count()
    started = time.monotonic()
    timeout_s = config.worker_timeout_s

    def alive_workers() -> list[int]:
        return [w for w in range(runtime.workers) if w not in runtime.dead]

    def worker_failed(wid: int, reason: str) -> None:
        counters["worker_failures"] += 1
        metrics.counter("shm.worker_failures").inc()
        runtime.dead.add(wid)
        ready.discard(wid)
        # Discard uncommitted partial results; re-enqueue every task the
        # worker held, running or prefetched (pairs it already committed
        # are dedupe-rejected on the re-run).
        for tid in outstanding[wid]:
            buffers.pop(tid, None)
            pending.appendleft(assignment.pop(tid))
            metrics.counter("shm.reenqueued").inc()
        outstanding[wid].clear()
        if tracer.enabled:
            tracer.event("shm_worker_failed", worker=wid, reason=reason)

    def starting() -> bool:
        return timeout_s is not None and any(w not in ready for w in alive_workers())

    while pending or any(outstanding.values()) or starting():
        deadline.check()
        now = time.monotonic()
        # Liveness: a dead process with work outstanding loses it back
        # to the queue (fault-injection kills land here).
        for wid in alive_workers():
            if not runtime.procs[wid].is_alive() and (
                outstanding[wid] or wid not in ready
            ):
                # Holding work, or dead before it ever came up.
                worker_failed(wid, "died")
        if timeout_s is not None:
            for wid in alive_workers():
                if wid in ready:
                    stalled = outstanding[wid] and now - last_life[wid] >= timeout_s
                else:
                    # Never came up (e.g. stalled on entry): it times
                    # out on its own, whatever the other workers do.
                    stalled = now - started >= timeout_s
                if stalled:
                    counters["worker_timeouts"] += 1
                    runtime.kill(wid)
                    worker_failed(wid, "timeout")
        if not alive_workers():
            # No survivors: hand the leftovers back for an inline drain.
            leftovers = list(pending)
            leftovers.extend(assignment.pop(tid) for tid in list(assignment))
            return leftovers
        # Dispatch: keep every ready worker PREFETCH tasks deep, so it
        # rolls into its next task without waiting a parent round-trip.
        while pending:
            slots = [w for w in ready if len(outstanding[w]) < PREFETCH]
            if not slots:
                break
            wid = min(slots, key=lambda w: len(outstanding[w]))
            task = pending.popleft()
            tid = next(tid_seq)
            assignment[tid] = task
            buffers[tid] = []
            outstanding[wid].append(tid)
            last_life[wid] = time.monotonic()
            runtime.inboxes[wid].put(("task", tid, *task))
            metrics.counter("shm.tasks").inc()
        try:
            msg = runtime.outbox.get(timeout=0.02)
        except queue_mod.Empty:
            continue
        while msg is not None:
            kind = msg[0]
            wid = msg[1]
            if kind == "ready":
                if wid not in runtime.dead:
                    ready.add(wid)
                    last_life[wid] = time.monotonic()
                    metrics.counter("shm.ready").inc()
            elif wid in runtime.dead:
                pass  # output of a worker given up on; dedupe-safe to drop
            elif kind == "batch":
                last_life[wid] = time.monotonic()
                tid = msg[2]
                if tid in buffers:
                    buffers[tid].extend(_unpack(msg[3]))
            elif kind == "done":
                _, _, tid, ctr_delta, busy_s, tail = msg
                last_life[wid] = time.monotonic()
                if tid in buffers:
                    buffers[tid].extend(_unpack(tail))
                    commit(buffers.pop(tid))
                    assignment.pop(tid, None)
                ctr.absorb(ctr_delta)
                worker_busy[wid] = worker_busy.get(wid, 0.0) + busy_s
                if tid in outstanding[wid]:
                    outstanding[wid].remove(tid)
                work["done"] += 1.0
            elif kind == "error":
                worker_failed(wid, msg[2])
            try:
                msg = runtime.outbox.get_nowait()
            except queue_mod.Empty:
                msg = None
    # A worker that never came up (no timeout set) holds no task at
    # stage end: stop it now instead of letting shutdown wait on it.
    for wid in alive_workers():
        if wid not in ready:
            counters["worker_unstarted"] += 1
            runtime.kill(wid)
    return []


def _drain_inline(
    arena: TreeArena,
    tasks: list[tuple[float, int, int]],
    delta: float,
    cell,
    commit: Callable[[list[tuple[float, int, int]]], None],
    kern,
    ctr: SweepCounters,
    deadline: "Deadline | NullDeadline",
) -> None:
    """Run tasks in the calling thread (the inline runtime, and the
    fallback once every worker died), checking the run's ``deadline``
    at every control poll."""
    blocks_r, blocks_s = arena.blocks_r, arena.blocks_s

    def cap_now() -> float:
        return min(delta, cell.value)

    out: list[tuple[float, int, int]] = []

    def control(_stack: list[tuple[float, int, int]]) -> None:
        deadline.check()
        # Commit eagerly: the tighter the cutoff, the more the DFS prunes.
        if out:
            commit(out)
            del out[:]

    for task in tasks:
        _run_pairs(blocks_r, blocks_s, [task], cap_now, kern, ctr, out, control)
        if out:
            commit(out)
            del out[:]
