"""The parallel k-distance join engine.

One :func:`parallel_kdj` call runs AM-KDJ's answer as a *bounded
sweep*: every object pair within a cap ``delta`` is found by a
depth-first block traversal, and the k closest of them are kept.  That
is the paper's SJ-within-Dmax observation (Section 5.4), with the
a-priori ``Dmax`` replaced by the Equation (3) eDmax estimate and the
stage verification below.

1. **Serialize once** — both trees' flat images are assembled into a
   :class:`~repro.kernels.arena.TreeArena` (a shared-memory segment in
   ``shm-process`` mode, a plain buffer otherwise).  Workers attach
   zero-copy; nothing is pickled per task.
2. **Adaptive task split** — the parent splits the ``(root, root)``
   node pair into a frontier of candidate node pairs until each task's
   estimated work drops under the cost-model threshold
   (:meth:`~repro.storage.cost.CostModel.shm_split_threshold`).
3. **Work-stealing workers** (:mod:`repro.parallel.steal`) — each
   worker drains its tasks as a DFS over node pairs with the batched
   kernels; idle workers are fed the bottom half of a busy worker's
   stack.  ``shm-serial`` drains the frontier in the calling thread.
4. **Batched qDmax exchange** — workers flush result batches; the
   parent commits them into a duplicate-rejecting
   :class:`~repro.parallel.merge.PairwiseBound` and publishes the new
   cutoff through one shared ``double`` cell that workers re-read
   between expansions.
5. **Verify & widen** — a stage is complete when the merged k-th
   distance fits under ``delta`` (or ``delta`` already covers the
   space); otherwise ``delta`` at least doubles and the stage re-runs
   against the same arena.  Stage boundaries are the checkpoint
   barriers.

The engine runs at any worker count, one included, so a parallel
speedup can be measured against the same algorithm on one worker.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import TYPE_CHECKING

from repro.core import estimation
from repro.core.pairs import ResultPair
from repro.core.stats import JoinStats
from repro.kernels import resolve_backend
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.merge import PairwiseBound
from repro.parallel.shm import TreeArena, WorkerTelemetry, _mp_context
from repro.parallel.steal import (
    SweepCounters,
    _LocalCell,
    _StageRuntime,
    _build_frontier,
    _drain_inline,
    _run_stage_pool,
)
from repro.resilience.deadline import Deadline
from repro.rtree.tree import RTree, check_k
from repro.storage.cost import DEFAULT_COST_MODEL

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import JoinConfig, JoinResult

#: Initial sweep cap: the Equation (3) eDmax estimate times this safety
#: factor.  Kept tight: a traversal that comes up short only re-sweeps
#: (one extra stage, same arena), while every bit of margin is real
#: distances the sequential run never computes.
DELTA_SAFETY = 1.05

#: The algorithm the engine answers (checkpoint identity, stats name).
ALGORITHM = "amkdj"


def parallel_kdj(
    tree_r: RTree,
    tree_s: RTree,
    k: int,
    config: "JoinConfig | None" = None,
) -> "JoinResult":
    """Parallel k-distance join on ``config.parallel`` workers.

    Returns the same result set as the sequential AM-KDJ run; stats
    carry the traversal's work counters, scheduling detail lands in
    ``stats.extra`` (``parallel_*``, ``obs.shm.*``, ``resilience_*``).
    ``config.parallel_mode`` picks where workers run: ``"shm-process"``
    (processes on a shared-memory arena), ``"shm-thread"`` or
    ``"shm-serial"`` (the calling thread).  ``k`` must be a positive
    integer (``ValueError`` otherwise).
    """
    from repro.core.api import JoinConfig, JoinResult

    check_k(k)
    config = config or JoinConfig()
    workers = max(1, config.parallel)
    mode = config.parallel_mode
    started = time.perf_counter()
    name = f"parallel-{ALGORITHM}"
    if tree_r.size == 0 or tree_s.size == 0:
        stats = JoinStats(algorithm=name, k=k, results=0)
        stats.wall_time = time.perf_counter() - started
        return JoinResult([], stats)

    cost = config.cost_model or DEFAULT_COST_MODEL
    space = tree_r.bounds().union(tree_s.bounds())
    delta_max = math.hypot(space.width, space.height)
    rho = config.rho or estimation.rho_for_datasets(
        tree_r.bounds(), tree_s.bounds(), tree_r.size, tree_s.size
    )
    delta = min(delta_max, estimation.initial_edmax(k, rho) * DELTA_SAFETY)
    if delta <= 0.0:
        delta = delta_max

    total = JoinStats(algorithm=name, k=k)
    metrics = MetricsRegistry()
    counters: Counter = Counter()
    ctr = SweepCounters()
    worker_busy: dict[int, float] = {}
    kern = resolve_backend()
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
            telemetry = WorkerTelemetry(
                workers, ctx=_mp_context() if mode == "shm-process" else None
            )
            plane.attach_workers(telemetry)
        live.start(name, k)
        plane.start(tracer)
    if deadline is not None:
        deadline.bind_tracer(tracer)

    final: list[ResultPair] = []
    stages = 0
    frontier = 0
    bound = PairwiseBound(k)
    checkpoint = None
    if config.checkpoint_path is not None or config.resume_from is not None:
        from repro.resilience.checkpoint import CheckpointManager, join_fingerprint

        fingerprint = join_fingerprint(tree_r, tree_s, ALGORITHM, k)
        if config.resume_from is not None:
            from repro.resilience.recovery import load_checkpoint, validate_checkpoint

            payload = load_checkpoint(config.resume_from, faults=config.fault_plan)
            validate_checkpoint(
                payload, algorithm=ALGORITHM, k=k,
                fingerprint=fingerprint, modes=("shm",),
            )
            engine_state = payload["engine"]
            delta = engine_state["delta"]
            stages = engine_state["stages"]
            final = [ResultPair._make(pair) for pair in engine_state["acc"]]
            # Work counters continue on top of the pre-crash totals.
            ctr.absorb(engine_state["ctr"])
        checkpoint = CheckpointManager.from_config(
            config, algorithm=ALGORITHM, k=k, fingerprint=fingerprint,
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
        tracer.begin(f"join:{name}", k=k, workers=workers, mode=mode)
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
            # order is the result order, and skipping per-pair
            # ResultPair construction keeps the parent's commit loop off
            # the critical path.  ResultPair is minted only for the
            # final k.
            acc: list[tuple[float, int, int]] = []
            prune_floor = max(4 * k, 4096)
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

            # A stage at the space diameter must prune nothing, yet a
            # pair's distance can round one ulp above ``math.hypot`` of
            # the bounding box: that stage sweeps uncapped.
            cap = math.inf if delta >= delta_max else delta
            stage_out: list[tuple[float, int, int]] = []
            tasks = _build_frontier(
                arena.view_r, arena.view_s, cap, threshold, kern, ctr,
                stage_out, metrics,
            )
            frontier = max(frontier, len(tasks))
            work["total"] += float(len(tasks))
            commit(stage_out)
            if deadline is not None:
                deadline.check()
            if mode == "shm-serial" or not tasks:
                _drain_inline(arena, tasks, cap, cell, commit, kern, ctr, deadline)
            else:
                runtime = _StageRuntime(mode, workers, arena, cap, config, telemetry)
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
                        arena, leftovers, cap, cell, commit, kern, ctr, deadline
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
        tracer.end(f"join:{name}", results=len(final), stages=stages)
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
            "parallel_frontier": frontier,
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
