"""Work-stealing shared-memory parallel k-distance join.

The zero-copy sibling of the legacy tiled engine
(:mod:`repro.parallel.engine`).  One :func:`shm_parallel_kdj` call:

1. **Serialize once** — both trees flatten into a
   :class:`~repro.parallel.shm.TreeArena` (a shared-memory segment in
   ``shm-process`` mode, a plain buffer otherwise).  Workers attach
   zero-copy; nothing is pickled per task and no partition-local trees
   are ever rebuilt.
2. **Adaptive task split** — the parent splits the ``(root, root)``
   node pair into a frontier of candidate node pairs until each task's
   estimated work (candidate pairs, from subtree counts and grown-MBR
   overlap) drops under the cost-model threshold
   (:meth:`~repro.storage.cost.CostModel.shm_split_threshold`).  Tasks
   dispatch closest-first, so the global cutoff tightens early.
3. **Steal-half workers** — each worker drains its task as a DFS over
   node pairs with the PR 5 kernels evaluating whole blocks against
   shared-buffer slices.  When the parent runs out of tasks and another
   worker still has a deep stack, it asks that worker to *shed*: the
   worker gives up the bottom (largest, farthest) half of its stack,
   which the parent re-dispatches to the idle workers.
4. **Batched qDmax exchange** — workers flush result batches; the
   parent commits them into a duplicate-rejecting
   :class:`~repro.parallel.merge.PairwiseBound` and publishes the new
   cutoff through one shared ``double`` cell.  Workers re-read the cell
   between expansions: no per-pair synchronization anywhere.
5. **Verify & widen** — stage loop identical in spirit to the legacy
   engine: a stage is complete when the merged k-th distance fits under
   the sweep cap ``delta`` (or ``delta`` already covers the space);
   otherwise ``delta`` at least doubles and the stage re-runs against
   the same arena.

Resilience: a worker that crashes, is killed, times out, or reports an
injected fault has its uncommitted buffers discarded and its tasks
(assigned *and* stolen-but-unfinished) re-enqueued for the survivors;
with no survivors the parent drains the queue inline.  The pair-keyed
bound makes re-runs safe: re-discovered pairs are rejected at commit,
so neither the answer nor the cutoff can be corrupted.  The arena is
closed (and its segment unlinked) in a ``finally`` on every exit path.
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

from repro.core import estimation
from repro.core.pairs import ResultPair
from repro.core.planesweep import sweeping_index
from repro.core.stats import JoinStats
from repro.geometry.distances import min_distance
from repro.kernels import resolve_backend
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.merge import PairwiseBound
from repro.parallel.shm import (
    ArenaDescriptor,
    AttachedArena,
    TreeArena,
    WorkerSlot,
    WorkerTelemetry,
)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import trip_worker_faults
from repro.storage.cost import DEFAULT_COST_MODEL

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import JoinConfig, JoinResult
    from repro.parallel.shm import SharedTreeView

#: The shared-memory executor modes (``JoinConfig.parallel_mode``).
SHM_MODES = ("shm-process", "shm-thread", "shm-serial")

#: Result pairs a worker buffers before flushing a batch to the parent.
FLUSH_PAIRS = 4096

#: Expansions between a worker's control polls (steal requests, cutoff
#: refresh happens anyway; this also bounds batch-flush latency).
POLL_EXPANSIONS = 8

#: Hard ceiling on the initial frontier size (adaptive splitting stops
#: here even if estimates stay above threshold).
MAX_TASKS = 512

#: Initial sweep cap: the Equation (3) eDmax estimate times this safety
#: factor.  Tighter than the tiled engine's strip margin — a block
#: traversal that comes up short only re-sweeps (one extra stage, same
#: arena), it doesn't re-partition, so undershooting is cheap and every
#: bit of margin is real distances the sequential run never computes.
DELTA_SAFETY = 1.05

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
    kernels_name: str | None,
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
        kern = resolve_backend(kernels_name)
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
        self.delta = delta
        self.procs: dict[int, Any] = {}
        self.inboxes: dict[int, Any] = {}
        self.dead: set[int] = set()
        tele_arr = telemetry.arr if telemetry is not None else None
        if mode == "shm-process":
            from repro.parallel.engine import _mp_context

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
                        delta, config.kernels, config.fault_plan, tele_arr,
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
                        delta, config.kernels, config.fault_plan, tele_arr,
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
        """Stop every worker; never block on a wedged one."""
        for wid, inbox in self.inboxes.items():
            if wid not in self.dead:
                try:
                    inbox.put(("stop",))
                except Exception:  # pragma: no cover
                    pass
        for wid, handle in self.procs.items():
            handle.join(timeout=1.0 if self.mode == "shm-process" else 0.2)
            if self.mode == "shm-process" and handle.is_alive():
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

    while pending or any(outstanding.values()):
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
                if outstanding[wid] and now - last_life[wid] >= timeout_s:
                    counters["worker_timeouts"] += 1
                    runtime.kill(wid)
                    worker_failed(wid, "timeout")
            if not ready and now - spawned >= timeout_s:
                # Nobody ever came up (e.g. every worker stalled on
                # entry): stop waiting for ready messages.
                for wid in alive_workers():
                    runtime.kill(wid)
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


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def shm_parallel_kdj(
    tree_r,
    tree_s,
    k: int,
    config: "JoinConfig",
    algorithm: str,
    workers: int,
    started: float,
) -> "JoinResult":
    """Zero-copy work-stealing k-distance join (``shm-*`` modes).

    Same contract as :func:`repro.parallel.engine.parallel_kdj`: the
    result stream is identical to the sequential run's, stats aggregate
    the per-worker work, scheduling detail lands in ``stats.extra``.
    """
    from repro.core.api import JoinResult

    mode = config.parallel_mode
    cost = config.cost_model or DEFAULT_COST_MODEL
    space = tree_r.bounds().union(tree_s.bounds())
    delta_max = math.hypot(space.width, space.height)
    rho = config.rho or estimation.rho_for_datasets(
        tree_r.bounds(), tree_s.bounds(), tree_r.size, tree_s.size
    )
    delta = min(delta_max, estimation.initial_edmax(k, rho) * DELTA_SAFETY)
    if delta <= 0.0:
        delta = delta_max

    total = JoinStats(algorithm=f"parallel-{algorithm}", k=k)
    metrics = MetricsRegistry()
    counters: Counter = Counter()
    ctr = SweepCounters()
    worker_busy: dict[int, float] = {}
    kern = resolve_backend(config.kernels)
    threshold = cost.shm_split_threshold(workers)
    deadline = Deadline(config.deadline_s) if config.deadline_s is not None else None
    tracer = NULL_TRACER
    owned_tracer: Tracer | None = None
    if config.trace_path is not None:
        from repro.obs import tracer_for

        tracer = owned_tracer = tracer_for(config.trace_path, config.trace_format)
    from repro.obs.live import LivePlane

    plane = LivePlane.from_config(config)
    live = plane.progress if plane is not None else None
    work = {"done": 0.0, "total": 0.0}
    telemetry: WorkerTelemetry | None = None
    if plane is not None:
        profiled = plane.ensure_tracer(tracer)
        if profiled is not tracer:
            # Sink-less tracer: span names for the profiler, no events.
            tracer = owned_tracer = profiled
        plane.attach_metrics(metrics)
        plane.set_work_source(lambda: (work["done"], work["total"]))
        if mode != "shm-serial":
            if mode == "shm-process":
                from repro.parallel.engine import _mp_context

                telemetry = WorkerTelemetry(workers, ctx=_mp_context())
            else:
                telemetry = WorkerTelemetry(workers)
            plane.attach_workers(telemetry)
        live.start(f"parallel-{algorithm}", k)
        plane.start(tracer)
    if deadline is not None:
        deadline.bind_tracer(tracer)

    final: list[ResultPair] = []
    stages = 0
    partitions = 0
    bound = PairwiseBound(k)
    checkpoint = None
    if config.checkpoint_path is not None or config.resume_from is not None:
        from repro.resilience.checkpoint import CheckpointManager, join_fingerprint

        fingerprint = join_fingerprint(tree_r, tree_s, algorithm, k)
        if config.resume_from is not None:
            from repro.resilience.recovery import load_checkpoint, validate_checkpoint

            payload = load_checkpoint(config.resume_from, faults=config.fault_plan)
            validate_checkpoint(
                payload, algorithm=algorithm, k=k,
                fingerprint=fingerprint, modes=("shm",),
            )
            engine_state = payload["engine"]
            delta = engine_state["delta"]
            stages = engine_state["stages"]
            final = [ResultPair._make(pair) for pair in engine_state["acc"]]
            # Work counters continue on top of the pre-crash totals.
            ctr.absorb(engine_state["ctr"])
        checkpoint = CheckpointManager.from_config(
            config, algorithm=algorithm, k=k, fingerprint=fingerprint,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        if checkpoint is not None:
            checkpoint.note_emit(len(final))
            checkpoint._last_emit_mark = checkpoint.emitted
            if plane is not None:
                plane.attach_checkpoint(checkpoint)

    # After the resume load: a bad checkpoint must not strand the
    # shared-memory arena (its views pin the mapping until close()).
    arena = TreeArena(tree_r, tree_s, use_shm=(mode == "shm-process"))

    def build_checkpoint() -> dict:
        # Drain-barrier snapshot: the stage pool has joined (workers
        # quiesced), the stage's accumulator is already sorted and cut
        # to the merged top-k.  Inter-stage state is small by design —
        # every widened stage re-discovers its pairs from the arena.
        snapshot = JoinStats(algorithm=total.algorithm, k=k)
        snapshot.results = len(final)
        snapshot.real_distance_computations = ctr.real
        snapshot.axis_distance_computations = ctr.axis
        snapshot.node_accesses = ctr.nodes
        snapshot.node_accesses_unbuffered = ctr.nodes
        snapshot.distance_queue_insertions = bound.insertions
        return {
            "mode": "shm",
            "engine": {
                "delta": delta,
                "stages": stages,
                "acc": [tuple(pair) for pair in final],
                "ctr": ctr.as_dict(),
            },
            "stats": snapshot,
        }

    run_started = time.monotonic()
    try:
        tracer.begin(
            f"join:parallel-{algorithm}",
            k=k, workers=workers, mode=mode,
        )
        while True:
            stages += 1
            stage_name = f"stage:parallel-{stages}"
            if live is not None:
                live.set_stage(f"parallel-{stages}")
                live.set_cutoffs(delta, bound.cutoff)
            tracer.begin(stage_name, delta=delta)
            # Fresh bound and accumulator per stage: a widened re-run
            # re-discovers every pair, and the pair-keyed bound must not
            # treat those re-discoveries as duplicates of a prior stage.
            bound = PairwiseBound(k)
            # Plain (distance, ref_r, ref_s) tuples: their natural sort
            # order IS pair_key order, and skipping per-pair ResultPair
            # construction keeps the parent's commit loop off the
            # critical path.  ResultPair is minted only for the final k.
            acc: list[tuple[float, int, int]] = []
            prune_floor = max(4 * k, 4096)

            runtime: _StageRuntime | None = None
            cell = _LocalCell()

            def commit(pairs: list[tuple[float, int, int]]) -> None:
                # Bulk path: dedupe once, then one heapq-merge insertion
                # into the global bound instead of a per-pair offer loop.
                acc.extend(bound.offer_pairs(pairs))
                cell.value = bound.cutoff
                if live is not None:
                    # Per committed batch, not per pair: the estimate
                    # (delta) vs the merged safe bound is the paper's
                    # own convergence signal.
                    live.set_results(min(len(acc), k))
                    live.set_cutoffs(delta, bound.cutoff)
                if len(acc) > prune_floor and bound.is_finite:
                    cutoff = bound.cutoff
                    acc[:] = [pair for pair in acc if pair[0] <= cutoff]

            stage_out: list[tuple[float, int, int]] = []
            tasks = _build_frontier(
                arena.view_r, arena.view_s, delta, threshold, kern, ctr,
                stage_out, metrics,
            )
            partitions = max(partitions, len(tasks))
            work["total"] += float(len(tasks))
            commit(stage_out)
            if deadline is not None:
                deadline.check()
            if mode == "shm-serial" or not tasks:
                _drain_inline(
                    arena, tasks, delta, cell, commit, kern, ctr, deadline
                )
            else:
                runtime = _StageRuntime(
                    mode, workers, arena, delta, config, telemetry
                )
                cell = runtime.cell
                cell.value = bound.cutoff
                try:
                    leftovers = _run_stage_pool(
                        runtime, tasks, commit, ctr, counters, metrics,
                        worker_busy, config, deadline, tracer, work,
                    )
                finally:
                    runtime.shutdown()
                if leftovers:
                    # Every worker died: the parent absorbs what's left.
                    counters["worker_fallbacks"] += 1
                    if tracer.enabled:
                        tracer.event("shm_inline_fallback", tasks=len(leftovers))
                    _drain_inline(
                        arena, leftovers, delta, cell, commit, kern, ctr, deadline
                    )
            acc.sort()
            del acc[k:]
            final = [ResultPair._make(pair) for pair in acc]
            tracer.end(stage_name, results=len(final))
            if live is not None:
                live.stage_done()
                # Inline drains and dead-worker fallbacks bypass the
                # per-task accounting: square the books at stage end.
                work["done"] = work["total"]
            if delta >= delta_max:
                # The sweep covered the whole space: nothing was pruned
                # by the cap, so the answer is complete (even if < k).
                break
            if len(final) == k and final[-1].distance <= delta:
                break
            needed = final[-1].distance if len(final) == k else 0.0
            new_delta = min(delta_max, max(delta * 2.0, needed))
            if tracer.enabled:
                tracer.event("delta_widen", old=delta, new=new_delta, needed=needed)
            delta = new_delta
            if checkpoint is not None:
                # Stage boundary = drain barrier: the captured delta is
                # the widened one, so a resume re-enters at exactly the
                # stage this run was about to start.
                checkpoint.note_emit(len(final) - checkpoint.emitted)
                checkpoint.barrier(build_checkpoint)
        tracer.end(f"join:parallel-{algorithm}", results=len(final), stages=stages)
        if tracer.enabled:
            # Final registry snapshot into the trace so offline report
            # rendering can derive distribution percentiles.
            tracer.counter("metrics:final", **metrics.snapshot())
    finally:
        # Plane first: its final snapshot still reads the work dict,
        # registry and telemetry array.
        if plane is not None:
            plane.close()
        if checkpoint is not None:
            checkpoint.close()
        arena.close()
        if owned_tracer is not None:
            owned_tracer.close()

    elapsed = max(time.monotonic() - run_started, 1e-9)
    for wid, busy_s in sorted(worker_busy.items()):
        metrics.gauge(f"shm.occupancy.w{wid}").set(min(busy_s / elapsed, 1.0))

    total.results = len(final)
    total.real_distance_computations = ctr.real
    total.axis_distance_computations = ctr.axis
    total.node_accesses = ctr.nodes
    total.node_accesses_unbuffered = ctr.nodes
    total.distance_queue_insertions = bound.insertions
    total.cpu_time = (
        ctr.real * cost.cpu_real_distance + ctr.axis * cost.cpu_axis_distance
    )
    total.response_time = total.cpu_time  # in-memory: no simulated I/O
    total.wall_time = time.perf_counter() - started
    total.extra.update(
        {
            "parallel_workers": workers,
            "parallel_mode": mode,
            "parallel_partitions": partitions,
            "parallel_stages": stages,
            "parallel_delta": delta,
            "parallel_qdmax": bound.cutoff if bound.is_finite else None,
            "shm.stack_pushes": float(ctr.pushes),
            "kernels.batches": float(ctr.batches),
            "kernels.batched_pairs": float(ctr.batched_pairs),
        }
    )
    total.extra.update(metrics.snapshot())
    if counters:
        total.extra.update(
            {f"resilience_{name}": float(value) for name, value in counters.items()}
        )
    return JoinResult(final, total)
