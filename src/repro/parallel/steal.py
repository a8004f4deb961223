"""Work-stealing execution of the parallel engine's bounded sweep.

The stage loop lives in :func:`repro.parallel.engine.parallel_kdj`;
this module holds what runs inside one stage:

- the **block traversal** over shared tree views — :func:`_expand`
  crosses two node blocks under the cap with the batched kernels,
  :func:`_run_pairs` drains a DFS stack of candidate node pairs
  closest-first, and :func:`_build_frontier` splits ``(root, root)``
  into cost-model-sized tasks;
- the **worker loop** (:func:`_shm_worker`) — attach zero-copy, drain
  tasks, flush result batches, and *shed* the bottom (largest,
  farthest) half of the stack when the parent asks for work to steal;
- the **parent scheduler** (:class:`_StageRuntime`,
  :func:`_run_stage_pool`) — dispatch with prefetch, steal requests,
  batch commits, liveness and per-worker timeouts — and the inline
  drain (:func:`_drain_inline`) that ``shm-serial`` runs and that
  absorbs the leftovers when every worker died.

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
import queue as queue_mod
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.planesweep import sweeping_index
from repro.geometry.distances import min_distance
from repro.kernels import resolve_backend
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.shm import (
    ArenaDescriptor,
    AttachedArena,
    TreeArena,
    WorkerSlot,
    WorkerTelemetry,
    _mp_context,
)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import trip_worker_faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import JoinConfig
    from repro.parallel.shm import SharedTreeView

#: Result pairs a worker buffers before flushing a batch to the parent.
FLUSH_PAIRS = 4096

#: Expansions between a worker's control polls (steal requests, cutoff
#: refresh happens anyway; this also bounds batch-flush latency).
POLL_EXPANSIONS = 8

#: Hard ceiling on the initial frontier size (adaptive splitting stops
#: here even if estimates stay above threshold).
MAX_TASKS = 512

#: Seconds between repeated steal requests to the same busy worker.
STEAL_ASK_INTERVAL = 0.02

#: Tasks queued per process worker ahead of completion, so a worker
#: rolls straight into its next task instead of idling one parent
#: round-trip per task (the latency shows: task count scales with
#: worker count, and so would the stalls).
PREFETCH = 2


def _pack(triples: list[tuple[float, int, int]]):
    """Flatten ``(dist, a, b)`` triples into one ``array('d')``.

    Process mode ships every pair/task list through a pickling queue;
    one flat double array pickles as a single buffer — two orders of
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
    """Inverse of :func:`_pack`; lists pass through untouched."""
    if isinstance(payload, list):
        return payload
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
# Block traversal over shared views
# ----------------------------------------------------------------------


def _charge_cross(
    vr: "SharedTreeView", vs: "SharedTreeView", nr: int, ns: int,
    cap: float, in_x: int, in_y: int, n_r: int, n_s: int, ctr: SweepCounters,
) -> None:
    """Charge one block cross like the sequential sweep would.

    The sweep picks the axis with the smaller sweeping index (Section
    3.2) and computes a real distance per in-window pair, scanning each
    anchor once; the full-matrix arithmetic the kernel actually did is
    uncharged overshoot, exactly like a sweep plan overshooting its
    stop position.
    """
    rect_r = vr.node_rect(nr)
    rect_s = vs.node_rect(ns)
    if sweeping_index(rect_r, rect_s, 0, cap) <= sweeping_index(rect_r, rect_s, 1, cap):
        ctr.real += in_x
    else:
        ctr.real += in_y
    ctr.axis += n_r + n_s
    ctr.batches += 1
    ctr.batched_pairs += n_r * n_s


def _expand(
    vr: "SharedTreeView", vs: "SharedTreeView", nr: int, ns: int, cap: float,
    kern, ctr: SweepCounters,
    out: list[tuple[float, int, int]], pushes: list[tuple[float, int, int]],
) -> None:
    """Expand one candidate node pair under ``cap``.

    Appends qualifying object pairs to ``out`` and surviving child node
    pairs (with their push-time mindist) to ``pushes``.  The descent is
    level-synchronized: equal levels cross both child blocks in one
    kernel call, unequal levels descend only the deeper side.
    """
    lvl_r = vr.lvl[nr]
    lvl_s = vs.lvl[ns]
    ctr.nodes += 2
    if lvl_r == lvl_s:
        rlo, rhi = vr.span(nr)
        slo, shi = vs.span(ns)
        rows, cols, dists, in_x, in_y = kern.cross_within(
            vr.entries.slice(rlo, rhi), vs.entries.slice(slo, shi), cap
        )
        _charge_cross(vr, vs, nr, ns, cap, in_x, in_y, rhi - rlo, shi - slo, ctr)
        if not rows:
            return
        eref_r = vr.eref
        eref_s = vs.eref
        if lvl_r == 0:
            for t in range(len(rows)):
                out.append(
                    (dists[t], int(eref_r[rlo + rows[t]]), int(eref_s[slo + cols[t]]))
                )
        else:
            for t in range(len(rows)):
                pushes.append(
                    (dists[t], int(eref_r[rlo + rows[t]]), int(eref_s[slo + cols[t]]))
                )
    elif lvl_s > lvl_r:
        slo, shi = vs.span(ns)
        hits = kern.block_within(vr.node_rect(nr), vs.entries.slice(slo, shi), cap)
        ctr.real += shi - slo
        ctr.batches += 1
        ctr.batched_pairs += shi - slo
        eref_s = vs.eref
        for j, dist in hits:
            pushes.append((dist, nr, int(eref_s[slo + j])))
    else:
        rlo, rhi = vr.span(nr)
        hits = kern.block_within(vs.node_rect(ns), vr.entries.slice(rlo, rhi), cap)
        ctr.real += rhi - rlo
        ctr.batches += 1
        ctr.batched_pairs += rhi - rlo
        eref_r = vr.eref
        for i, dist in hits:
            pushes.append((dist, int(eref_r[rlo + i]), ns))


def _desc_dist(item: tuple[float, int, int]) -> float:
    return -item[0]


def _run_pairs(
    vr: "SharedTreeView", vs: "SharedTreeView",
    stack: list[tuple[float, int, int]],
    cap_fn: Callable[[], float], kern, ctr: SweepCounters,
    out: list[tuple[float, int, int]],
    control: Callable[[list[tuple[float, int, int]]], None] | None = None,
) -> None:
    """Drain a DFS stack of ``(mindist, node_r, node_s)`` pairs.

    Pushes are sorted farthest-first so the stack pops closest-first —
    confirmed pairs arrive in roughly ascending distance, which is what
    makes the batched cutoff exchange tighten quickly.  ``control`` runs
    every :data:`POLL_EXPANSIONS` expansions (steal polling, batch
    flushing, deadline checks).
    """
    expansions = 0
    pushes: list[tuple[float, int, int]] = []
    while stack:
        dist, nr, ns = stack.pop()
        cap = cap_fn()
        if dist > cap:
            continue
        _expand(vr, vs, nr, ns, cap, kern, ctr, out, pushes)
        if pushes:
            if len(pushes) > 1:
                pushes.sort(key=_desc_dist)
            stack.extend(pushes)
            ctr.pushes += len(pushes)
            pushes = []
        expansions += 1
        if control is not None and expansions % POLL_EXPANSIONS == 0:
            control(stack)


def _est_pairs(
    vr: "SharedTreeView", vs: "SharedTreeView", nr: int, ns: int, cap: float
) -> float:
    """Estimated candidate pairs under a task: subtree counts times the
    fraction of S's box the cap-grown R box overlaps (crude, but only
    task granularity depends on it)."""
    ox = min(float(vr.nxmax[nr]) + cap, float(vs.nxmax[ns])) - max(
        float(vr.nxmin[nr]) - cap, float(vs.nxmin[ns])
    )
    oy = min(float(vr.nymax[nr]) + cap, float(vs.nymax[ns])) - max(
        float(vr.nymin[nr]) - cap, float(vs.nymin[ns])
    )
    if ox <= 0.0 or oy <= 0.0:
        return 0.0
    fx = min(1.0, ox / max(float(vs.nxmax[ns]) - float(vs.nxmin[ns]), 1e-12))
    fy = min(1.0, oy / max(float(vs.nymax[ns]) - float(vs.nymin[ns]), 1e-12))
    return float(vr.cnt[nr]) * float(vs.cnt[ns]) * fx * fy


def _build_frontier(
    vr: "SharedTreeView", vs: "SharedTreeView", delta: float,
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
    root_r, root_s = vr.layout.root, vs.layout.root
    root_dist = min_distance(vr.node_rect(root_r), vs.node_rect(root_s))
    ctr.real += 1
    if root_dist > delta:
        return []
    seq = itertools.count()
    heap = [(-_est_pairs(vr, vs, root_r, root_s, delta), next(seq), root_dist,
             root_r, root_s)]
    tasks: list[tuple[float, int, int]] = []
    splits = 0
    while heap:
        neg_est, _, dist, nr, ns = heapq.heappop(heap)
        if (
            -neg_est <= threshold
            or (vr.lvl[nr] == 0 and vs.lvl[ns] == 0)
            or len(tasks) + len(heap) >= MAX_TASKS
        ):
            tasks.append((dist, nr, ns))
            continue
        pushes: list[tuple[float, int, int]] = []
        _expand(vr, vs, nr, ns, delta, kern, ctr, out, pushes)
        splits += 1
        for child in pushes:
            heapq.heappush(
                heap,
                (-_est_pairs(vr, vs, child[1], child[2], delta), next(seq), *child),
            )
    if splits:
        metrics.counter("shm.splits").inc(float(splits))
    tasks.sort(key=lambda t: t[0])
    return tasks


# ----------------------------------------------------------------------
# Worker loop (module level so process mode can spawn it)
# ----------------------------------------------------------------------


def _shm_worker(
    wid: int,
    source: "ArenaDescriptor | tuple[SharedTreeView, SharedTreeView]",
    inbox,
    outbox,
    cutoff_cell,
    delta: float,
    fault_plan,
    telemetry=None,
) -> None:
    """One work-stealing worker: attach, loop over tasks, shed on demand.

    All result/bound exchange is batched: results flush every
    :data:`FLUSH_PAIRS` pairs (and at task end), the cutoff is re-read
    from the shared cell between expansions.  Any exception — injected
    crashes included — is reported as an ``error`` message; the parent
    treats it like a death and re-enqueues the worker's tasks.

    ``telemetry`` is the raw :class:`WorkerTelemetry` array (or None):
    the worker stamps its heartbeat/steal/giveback/queue-depth slot at
    task boundaries and control polls — the same cadence as the other
    control work, never per candidate pair.
    """
    attached: AttachedArena | None = None
    slot = WorkerSlot(telemetry, wid) if telemetry is not None else None
    try:
        if fault_plan is not None:
            trip_worker_faults(fault_plan, wid)
        if isinstance(source, ArenaDescriptor):
            attached = AttachedArena(source)
            vr, vs = attached.view_r, attached.view_s
        else:
            vr, vs = source
        kern = resolve_backend()
        # Process mode pays pickling per message: flat-array encode.
        encode = _pack if attached is not None else (lambda triples: triples)
        outbox.put(("ready", wid))
        if slot is not None:
            slot.beat(busy=False)
        #: Prefetched task messages pulled out of the inbox mid-task.
        backlog: deque = deque()

        def cap_now() -> float:
            return min(delta, cutoff_cell.value)

        while True:
            msg = backlog.popleft() if backlog else inbox.get()
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "steal":
                # Idle (between tasks): nothing on the stack to shed.
                outbox.put(("shed", wid, []))
                if slot is not None:
                    slot.beat(busy=False)
                continue
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
                        outbox.put(("batch", wid, tid, encode(batch)))
                while True:
                    try:
                        request = inbox.get_nowait()
                    except queue_mod.Empty:
                        break
                    if request[0] == "stop":
                        raise _Stop
                    if request[0] == "task":
                        # A prefetched assignment: park it for later.
                        backlog.append(request)
                    elif request[0] == "steal":
                        if backlog:
                            # Give a whole queued task back before
                            # carving up the live stack.
                            queued = backlog.popleft()
                            outbox.put(("giveback", wid, queued[1]))
                            if slot is not None:
                                slot.gave_back()
                        else:
                            # Steal-half: shed the bottom (farthest,
                            # largest) half of the stack to the parent.
                            half = len(live_stack) // 2
                            shed = live_stack[:half]
                            del live_stack[:half]
                            outbox.put(("shed", wid, encode(shed)))
                            if slot is not None and shed:
                                slot.stole()

            _run_pairs(vr, vs, stack, cap_now, kern, ctr, out, control)
            busy_s = time.perf_counter() - started
            cap = cap_now()
            tail = [p for p in out if p[0] <= cap]
            outbox.put(("done", wid, tid, ctr.as_dict(), busy_s, encode(tail)))
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
    finally:
        if attached is not None:
            attached.close()


class _LocalCell:
    """The thread/serial stand-in for the shared cutoff ``Value``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = math.inf


# ----------------------------------------------------------------------
# Parent-side stage execution
# ----------------------------------------------------------------------


class _StageRuntime:
    """One stage's scheduler state: workers, queues, bookkeeping."""

    def __init__(
        self,
        mode: str,
        workers: int,
        arena: TreeArena,
        delta: float,
        config: "JoinConfig",
        telemetry: WorkerTelemetry | None = None,
    ) -> None:
        self.mode = mode
        self.workers = workers
        self.procs: dict[int, Any] = {}
        self.inboxes: dict[int, Any] = {}
        self.dead: set[int] = set()
        tele_arr = telemetry.arr if telemetry is not None else None
        if mode == "shm-process":
            ctx = _mp_context()
            self.cell = ctx.Value("d", math.inf, lock=False)
            self.outbox = ctx.Queue()
            source: Any = arena.descriptor()
            for wid in range(workers):
                inbox = ctx.Queue()
                proc = ctx.Process(
                    target=_shm_worker,
                    args=(
                        wid, source, inbox, self.outbox, self.cell,
                        delta, config.fault_plan, tele_arr,
                    ),
                    daemon=True,
                )
                proc.start()
                self.procs[wid] = proc
                self.inboxes[wid] = inbox
        else:
            self.cell = _LocalCell()
            self.outbox = queue_mod.Queue()
            source = (arena.view_r, arena.view_s)
            for wid in range(workers):
                inbox: Any = queue_mod.Queue()
                thread = threading.Thread(
                    target=_shm_worker,
                    args=(
                        wid, source, inbox, self.outbox, self.cell,
                        delta, config.fault_plan, tele_arr,
                    ),
                    daemon=True,
                )
                thread.start()
                self.procs[wid] = thread
                self.inboxes[wid] = inbox

    def alive(self, wid: int) -> bool:
        return wid not in self.dead and self.procs[wid].is_alive()

    def kill(self, wid: int) -> None:
        """Hard-stop one worker (process mode); threads are abandoned."""
        self.dead.add(wid)
        handle = self.procs[wid]
        if self.mode == "shm-process":
            try:
                handle.terminate()
            except Exception:  # pragma: no cover
                pass

    def shutdown(self) -> None:
        """Stop every worker; never block on a wedged one.

        Dead workers get the stop message too: an abandoned thread (one
        that timed out or never came up) keeps running until it reads
        its inbox, and must find a stop there rather than block forever.
        A killed process was terminated already, so its join returns as
        soon as it has exited.
        """
        for inbox in self.inboxes.values():
            try:
                inbox.put(("stop",))
            except Exception:  # pragma: no cover
                pass
        for wid, handle in self.procs.items():
            if self.mode != "shm-process":
                if wid not in self.dead:
                    handle.join(timeout=0.2)
                continue
            handle.join(timeout=1.0)
            if handle.is_alive():
                try:
                    handle.terminate()
                except Exception:  # pragma: no cover
                    pass
        if self.mode == "shm-process":
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
    deadline: Deadline | None,
    tracer: Tracer,
    work: dict[str, float] | None = None,
) -> list[tuple[float, int, int]]:
    """Dispatch/steal/commit loop for one stage on live workers.

    Returns the tasks left over if every worker died (the caller drains
    them inline); an empty list means the stage completed.  ``work``
    (when given) accumulates scheduling units for the live progress
    plane: ``done`` per completed task, ``total`` grown by shed splits.

    With ``config.worker_timeout_s`` set, a worker times out when it
    holds work and stays silent that long, or when it has not come up
    that long after the spawn; the stage also waits for every worker to
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
    last_ask: dict[int, float] = {}
    tid_seq = itertools.count()
    spawned = time.monotonic()
    timeout_s = config.worker_timeout_s

    def alive_workers() -> list[int]:
        return [w for w in range(runtime.workers) if w not in runtime.dead]

    def worker_failed(wid: int, reason: str) -> None:
        counters["worker_failures"] += 1
        metrics.counter("shm.worker_failures").inc()
        runtime.dead.add(wid)
        ready.discard(wid)
        # Discard uncommitted partial results; re-enqueue every task the
        # worker held, running or prefetched (pairs a shed subtask
        # already committed are dedupe-rejected on the re-run).
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
        if deadline is not None:
            deadline.check()
        now = time.monotonic()
        # Liveness: a dead process with work outstanding loses it back
        # to the queue (fault-injection kills land here).
        if runtime.mode == "shm-process":
            for wid in alive_workers():
                if not runtime.procs[wid].is_alive() and (
                    outstanding[wid] or wid not in ready
                ):
                    # Holding work, or dead before it ever attached.
                    worker_failed(wid, "died")
        if timeout_s is not None:
            for wid in alive_workers():
                if wid in ready:
                    stalled = outstanding[wid] and now - last_life[wid] >= timeout_s
                else:
                    # Never came up (e.g. stalled on entry): it times
                    # out on its own, whatever the other workers do.
                    stalled = now - spawned >= timeout_s
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
        if not pending and any(not outstanding[w] for w in ready):
            # Idle hands + busy workers and nothing queued: steal.
            for wid in ready:
                if outstanding[wid] and now - last_ask.get(wid, 0.0) >= STEAL_ASK_INTERVAL:
                    runtime.inboxes[wid].put(("steal",))
                    last_ask[wid] = now
                    metrics.counter("shm.steal_requests").inc()
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
                    metrics.counter("shm.attaches").inc()
            elif wid in runtime.dead:
                pass  # zombie output (abandoned thread); dedupe-safe to drop
            elif kind == "batch":
                last_life[wid] = time.monotonic()
                tid = msg[2]
                if tid in buffers:
                    buffers[tid].extend(_unpack(msg[3]))
            elif kind == "shed":
                last_life[wid] = time.monotonic()
                shed = _unpack(msg[2])
                if shed:
                    pending.extend(shed)
                    metrics.counter("shm.steals").inc()
                    metrics.counter("shm.shed_tasks").inc(float(len(shed)))
                    last_ask.pop(wid, None)
                    if work is not None:
                        work["total"] += float(len(shed))
            elif kind == "giveback":
                # The worker returned a prefetched, never-started task.
                last_life[wid] = time.monotonic()
                tid = msg[2]
                if tid in assignment:
                    buffers.pop(tid, None)
                    pending.appendleft(assignment.pop(tid))
                    if tid in outstanding[wid]:
                        outstanding[wid].remove(tid)
                    metrics.counter("shm.steals").inc()
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
                if work is not None:
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
    deadline: Deadline | None,
) -> None:
    """Run tasks in the parent (shm-serial mode and last-resort fallback)."""
    vr, vs = arena.view_r, arena.view_s

    def cap_now() -> float:
        return min(delta, cell.value)

    out: list[tuple[float, int, int]] = []

    def control(_stack: list[tuple[float, int, int]]) -> None:
        if deadline is not None:
            deadline.check()
        # Commit eagerly: the tighter the cutoff, the more the DFS prunes.
        if out:
            commit(out)
            del out[:]

    for task in tasks:
        _run_pairs(vr, vs, [task], cap_now, kern, ctr, out, control)
        if out:
            commit(out)
            del out[:]
