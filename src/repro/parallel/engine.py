"""The parallel k-distance join engine.

One :func:`parallel_kdj` call runs AM-KDJ's answer as a *bounded
sweep*: every object pair within a cap ``delta`` is found by a
depth-first block traversal, and the k closest of them are kept.  That
is the paper's SJ-within-Dmax observation (Section 5.4), with the
a-priori ``Dmax`` replaced by the Equation (3) eDmax estimate and the
stage verification below.

1. **Node blocks** — both trees' per-node blocks of ``Node.entries``
   (memoized per tree version) are opened as a
   :class:`~repro.kernels.arena.TreeArena`.  Forked workers read the
   parent's blocks through the memory pages fork shares with them;
   nothing is copied or pickled per task.
2. **Adaptive task split** — the parent splits the ``(root, root)``
   node pair into a frontier of candidate node pairs until each task's
   estimated work drops under the cost-model threshold
   (:meth:`~repro.storage.cost.CostModel.shm_split_threshold`).
3. **Workers** (:mod:`repro.parallel.runtime`) — each forked worker
   pulls cost-sized tasks, :data:`~repro.parallel.runtime.PREFETCH`
   ahead, and drains each as a DFS over node pairs with the batched
   kernels.  At one worker, or where fork is unavailable, the calling
   thread drains the frontier itself.
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
speedup can be measured against the same algorithm on one worker.  It
picks its runtime itself: ``"process"`` (forked workers) when
``config.parallel >= 2`` on Linux with the ``fork`` start method,
``"inline"`` (the calling thread) otherwise.  Under ``"process"`` a
stage whose frontier holds fewer than two tasks still drains inline:
it has nothing to run in parallel, and forking workers for it would
cost more than the task.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.pairs import ResultPair
from repro.kernels import resolve_backend
from repro.kernels.arena import TreeArena
from repro.parallel.merge import PairwiseBound
from repro.parallel.runtime import (
    SweepCounters,
    WorkerTelemetry,
    _LocalCell,
    _StageRuntime,
    _build_frontier,
    _drain_inline,
    _fork_context,
    _run_stage_pool,
)
from repro.rtree.tree import RTree, check_k

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import JoinConfig, JoinResult
    from repro.core.base import JoinContext
    from repro.core.stats import Instruments, JoinStats

#: Initial sweep cap: the Equation (3) eDmax estimate times this safety
#: factor.  Kept tight: a traversal that comes up short only re-sweeps
#: (one extra stage, same arena), while every bit of margin is real
#: distances the sequential run never computes.
DELTA_SAFETY = 1.05

#: The algorithm the engine answers (checkpoint identity, live plane).
ALGORITHM = "amkdj"

#: The run's name: its ``join:`` span and ``stats.algorithm``.
NAME = f"parallel-{ALGORITHM}"


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
    ``stats.extra["parallel_mode"]`` names the runtime the worker count
    picks: ``"process"`` (forked workers, at two workers or more on
    Linux; a stage of one task still drains inline) or ``"inline"``
    (the calling thread).  ``config.parallel_mode`` selects nothing.
    ``k`` must be a positive integer (``ValueError`` otherwise).

    The run opens through :meth:`JoinRunner.open
    <repro.core.api.JoinRunner.open>` like every sequential one, always
    with the metrics registry on (the ``obs.shm.*`` counters), and
    reports its stages, answer and barriers through the context's
    :class:`~repro.core.base.JoinRun`.
    """
    from repro.core.api import JoinConfig, JoinResult, JoinRunner

    check_k(k)
    config = config or JoinConfig()
    started = time.perf_counter()
    runner = JoinRunner(tree_r, tree_s, replace(config, collect_metrics=True))
    ctx, payload = runner.open(ALGORITHM, k, modes=("shm",))
    try:
        results, stats = _bounded_sweep(
            ctx, k, config, payload["engine"] if payload is not None else None
        )
    finally:
        ctx.close()
    JoinRunner._merge_resume_prefix(stats, payload)
    stats.wall_time = time.perf_counter() - started
    return JoinResult(results, stats)


def _bounded_sweep(
    ctx: "JoinContext", k: int, config: "JoinConfig", resume: dict | None
) -> tuple[list[ResultPair], "JoinStats"]:
    """The stage loop on an open context; ``resume`` is a checkpoint's
    ``engine`` state (mode ``"shm"``)."""
    workers = max(1, config.parallel)
    fork = _fork_context() if workers >= 2 else None
    mode = "process" if fork is not None else "inline"
    instr = ctx.instr
    tracer, metrics, deadline = instr.tracer, instr.metrics, ctx.deadline
    final: list[ResultPair] = []
    stages = pushes = 0

    def capture() -> dict:
        # Drain-barrier snapshot: the stage pool has joined (workers
        # quiesced), the stage's answer is already sorted and cut to the
        # merged top-k, and its work is charged.  Inter-stage state is
        # small by design — every widened stage re-discovers its pairs
        # from the arena.
        stats = ctx.make_stats(NAME, k, len(final))
        stats.extra["shm.stack_pushes"] = float(pushes)
        return {
            "mode": "shm",
            "engine": {
                "delta": delta,
                "stages": stages,
                "acc": [tuple(pair) for pair in final],
            },
            "stats": stats,
        }

    run = ctx.run(NAME, capture, k=k, workers=workers, mode=mode)
    if ctx.tree_r.size == 0 or ctx.tree_s.size == 0:
        run.close(results=0)
        return [], ctx.make_stats(NAME, k, 0)

    space = ctx.tree_r.bounds().union(ctx.tree_s.bounds())
    delta_max = math.hypot(space.width, space.height)
    if resume is not None:
        delta, stages = resume["delta"], resume["stages"]
        final = [ResultPair._make(pair) for pair in resume["acc"]]
    else:
        delta = min(delta_max, ctx.initial_edmax(k) * DELTA_SAFETY)
        if delta <= 0.0:
            delta = delta_max
    counters: Counter = Counter()
    worker_busy: dict[int, float] = {}
    kern = resolve_backend()
    threshold = ctx.cost_model.shm_split_threshold(workers)
    frontier = 0
    bound = PairwiseBound(k)
    work = {"done": 0.0, "total": 0.0}
    telemetry: WorkerTelemetry | None = None
    if ctx.plane is not None:
        # Progress counts tasks, not main-queue entries.
        ctx.plane.set_work_source(lambda: (work["done"], work["total"]))
        if fork is not None:
            telemetry = WorkerTelemetry(workers, fork)
            ctx.plane.attach_workers(telemetry)

    arena = TreeArena(ctx.tree_r, ctx.tree_s)
    run_started = time.monotonic()
    while True:
        stages += 1
        run.begin_stage(
            f"parallel-{stages}", cutoffs=(delta, bound.cutoff), delta=delta
        )
        # Fresh bound and accumulator per stage: a widened re-run
        # re-discovers every pair, and the pair-keyed bound must not
        # treat those re-discoveries as duplicates of a prior stage.
        # Fresh counters too: each stage's work is charged at its end.
        bound = PairwiseBound(k)
        # Plain (distance, ref_r, ref_s) tuples: their natural sort
        # order is the result order, and skipping per-pair ResultPair
        # construction keeps the parent's commit loop off the critical
        # path.  ResultPair is minted only for the final k.
        acc: list[tuple[float, int, int]] = []
        prune_floor = max(4 * k, 4096)
        cell = _LocalCell()
        ctr = SweepCounters()

        def commit(pairs: list[tuple[float, int, int]]) -> None:
            # Bulk path: dedupe once, then one heapq-merge insertion
            # into the global bound instead of a per-pair offer loop.
            acc.extend(bound.offer_pairs(pairs))
            cell.value = bound.cutoff
            # Per committed batch, not per pair: the estimate (delta)
            # vs the merged safe bound is the paper's own convergence
            # signal.
            run.produced(min(len(acc), k))
            run.cutoffs(delta, bound.cutoff)
            if len(acc) > prune_floor and bound.is_finite:
                cutoff = bound.cutoff
                acc[:] = [pair for pair in acc if pair[0] <= cutoff]

        # A stage at the space diameter must prune nothing, yet a pair's
        # distance can round one ulp above ``math.hypot`` of the
        # bounding box: that stage sweeps uncapped.
        cap = math.inf if delta >= delta_max else delta
        stage_out: list[tuple[float, int, int]] = []
        tasks = _build_frontier(arena, cap, threshold, kern, ctr, stage_out, metrics)
        frontier = max(frontier, len(tasks))
        work["total"] += float(len(tasks))
        commit(stage_out)
        deadline.check()
        if fork is None or len(tasks) < 2:
            # A stage of one task has nothing to run in parallel: the
            # calling thread drains it rather than forking workers.
            _drain_inline(arena, tasks, cap, cell, commit, kern, ctr, deadline)
        else:
            runtime = _StageRuntime(workers, arena, cap, config, fork, telemetry)
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
                _drain_inline(arena, leftovers, cap, cell, commit, kern, ctr, deadline)
        acc.sort()
        del acc[k:]
        final = [ResultPair._make(pair) for pair in acc]
        _charge(instr, ctr)
        pushes += ctr.pushes
        run.produced(len(final))
        run.end_stage(results=len(final))
        # Inline drains and dead-worker fallbacks bypass the per-task
        # accounting: square the books at stage end.
        work["done"] = work["total"]
        if delta >= delta_max:
            # The sweep covered the whole space: nothing was pruned by
            # the cap, so the answer is complete (even if < k).
            break
        if len(final) == k and final[-1].distance <= delta:
            break
        needed = final[-1].distance if len(final) == k else 0.0
        new_delta = min(delta_max, max(delta * 2.0, needed))
        if tracer.enabled:
            tracer.event("delta_widen", old=delta, new=new_delta, needed=needed)
        delta = new_delta
        # Stage boundary = drain barrier: the captured delta is the
        # widened one, so a resume re-enters at exactly the stage this
        # run was about to start.
        run.step()

    elapsed = max(time.monotonic() - run_started, 1e-9)
    for wid, busy_s in sorted(worker_busy.items()):
        metrics.gauge(f"shm.occupancy.w{wid}").set(min(busy_s / elapsed, 1.0))
    run.answer([pair.distance for pair in final])
    run.close(results=len(final), stages=stages)
    stats = ctx.make_stats(NAME, k, len(final))
    stats.distance_queue_insertions = bound.insertions
    stats.extra.update(
        {
            "parallel_workers": workers,
            "parallel_mode": mode,
            "parallel_frontier": frontier,
            "parallel_stages": stages,
            "parallel_delta": delta,
            "parallel_qdmax": bound.cutoff if bound.is_finite else None,
            "shm.stack_pushes": float(pushes),
        }
    )
    stats.extra.update(
        {f"resilience_{name}": float(value) for name, value in counters.items()}
    )
    return final, stats


def _charge(instr: "Instruments", ctr: SweepCounters) -> None:
    """Charge one stage's sweep work where ``make_stats`` and the stage
    meter read it.

    Distances go to the simulated CPU clock, real ones first; the
    node blocks are in memory, so no I/O is charged, and every
    expansion reads one block of each tree (``ctr.nodes`` counts both).
    """
    instr.count_real(ctr.real)
    instr.count_axis(ctr.axis)
    instr.count_block_reads(ctr.nodes // 2)
    instr.kernel_batches += ctr.batches
    instr.kernel_batched_pairs += ctr.batched_pairs
