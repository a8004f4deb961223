"""AM-KDJ: adaptive multi-stage k-distance join (Algorithms 2 and 3).

Two stages:

1. **Aggressive pruning** — the plane sweep's axis scan is bounded by the
   *estimated* cutoff ``eDmax`` (Equation 3 unless the caller overrides
   it), which is typically far tighter than the safe ``qDmax`` early in
   the run and thereby kills the slow-start problem.  Real distances are
   still filtered with ``qDmax`` only, so every pruned-but-needed pair is
   attributable to the axis bound — and the pair that was being expanded
   is recorded in the compensation queue with per-anchor resume
   positions.  Whenever ``qDmax`` drops to or below ``eDmax`` the
   estimate is replaced by the safe bound (the paper's line 8) and the
   algorithm degenerates gracefully into B-KDJ.
2. **Compensation** (only when stage one ends with fewer than k results
   because a dequeued pair's distance exceeded the aggressive cutoff) —
   recorded pairs re-enter the main queue keyed by their pair distance;
   when dequeued, only the child pairs their stage-one sweep *skipped*
   are examined, under ``qDmax``.

Correctness note (documented in DESIGN.md): the paper's printed line 9
terminates stage one when ``c.distance < eDmax``, which would fire on the
very first dequeue; the prose makes clear the intended trigger is
``c.distance > eDmax`` — everything within the aggressive cutoff has been
produced, so remaining answers may have been pruned.  We additionally
track the minimum *unsafe* cutoff ever used for axis pruning (an
expansion whose ``eDmax`` was at or above the then-current ``qDmax`` was
safe and needs no compensation), which keeps the algorithm correct under
adaptive re-estimation.
"""

from __future__ import annotations

import math

from repro.core import estimation
from repro.core.base import JoinContext, kdj_emit
from repro.core.pairs import PairPayload, ResultPair
from repro.core.planesweep import PlaneSweeper
from repro.core.stats import JoinStats
from repro.queues.compensation import CompensationQueue
from repro.queues.distance_queue import DistanceQueue


def amkdj(
    ctx: JoinContext,
    k: int,
    edmax: float | None = None,
    adaptive: bool = False,
    resume: dict | None = None,
) -> tuple[list[ResultPair], JoinStats]:
    """Run AM-KDJ and return the k nearest pairs with run metrics.

    Parameters
    ----------
    ctx:
        Fresh join context.
    k:
        Stopping cardinality.
    edmax:
        Override for the initial estimated cutoff (Figure 14 sweeps
        this); default is Equation (3) on the context's ``rho``.
    adaptive:
        Re-estimate ``eDmax`` with Section 4.3.2's corrections at the
        25/50/75% result milestones.
    resume:
        Checkpoint ``engine`` state (mode ``"exact"``).  Checkpoints
        record which stage was active: a stage-one resume restores the
        aggressive loop's cutoff bookkeeping and compensation queue; a
        stage-two resume re-enters the compensation loop directly (the
        pending records already ride in the restored main queue).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    queue = ctx.main_queue
    distance_queue = DistanceQueue(k)
    comp_queue: CompensationQueue = CompensationQueue()
    results: list[ResultPair] = []
    edmax_value = ctx.initial_edmax(k) if edmax is None else edmax
    initial_edmax = edmax_value
    min_unsafe_cutoff = math.inf
    next_milestone = max(k // 4, 1) if adaptive else k + 1
    estimate_active = True  # until line 8 replaces eDmax with qDmax
    stage = 1
    if resume is not None:
        stage = resume["stage"]
        results = list(resume["results"])
        initial_edmax = resume["initial_edmax"]
        if stage == 1:
            edmax_value = resume["edmax_value"]
            min_unsafe_cutoff = resume["min_unsafe_cutoff"]
            next_milestone = resume["next_milestone"]
            estimate_active = resume["estimate_active"]

    def capture() -> dict:
        stats = ctx.make_stats("amkdj", k, len(results))
        stats.distance_queue_insertions = distance_queue.insertions
        stats.compensation_stages = stage - 1
        stats.compensation_peak = comp_queue.peak_size
        stats.edmax_initial = initial_edmax
        engine = {
            "stage": stage,
            "results": list(results),
            "dq": distance_queue.snapshot(),
            "comp": comp_queue.snapshot(),
            "initial_edmax": initial_edmax,
        }
        if stage == 1:
            engine.update(
                edmax_value=edmax_value,
                min_unsafe_cutoff=min_unsafe_cutoff,
                next_milestone=next_milestone,
                estimate_active=estimate_active,
            )
        return ctx.exact_checkpoint(engine, stats)

    run = ctx.run("amkdj", capture, k=k, adaptive=adaptive)
    if not ctx.seed(resume):
        run.close(results=0)
        return results, ctx.make_stats("amkdj", k, 0)
    if resume is not None:
        distance_queue.restore(resume["dq"])
        comp_queue.restore(resume["comp"])
    tracer = ctx.instr.tracer
    tracer.event("edmax", reason="init", old=math.inf, new=edmax_value,
                 actual=math.inf)
    sweeper = PlaneSweeper(
        ctx.instr, ctx.options.optimize_axis, ctx.options.optimize_direction
    )

    def qdmax() -> float:
        return distance_queue.cutoff

    emit, push = kdj_emit(ctx, distance_queue)
    step, result, cutoffs = run.step, run.result, run.cutoffs

    # ------------------------------------------------------------------
    # Stage one: aggressive pruning (Algorithm 2)
    # ------------------------------------------------------------------
    batch = run.begin_stage(
        "aggressive", cutoffs=(edmax_value, math.inf), edmax=edmax_value
    )
    need_compensation = False
    while stage == 1 and len(results) < k and queue:
        step()
        distance, payload = queue.pop()
        if distance > min_unsafe_cutoff:
            # Line 9 (corrected): anything at this distance — including an
            # object pair, which enters the queue under qDmax rather than
            # eDmax — may be preceded by a pruned pair; switch to the
            # compensation stage before producing it.
            queue.insert(distance, payload)
            need_compensation = True
            break
        if payload.is_object_pair:
            results.append(ResultPair(distance, payload.a.ref, payload.b.ref))
            result(distance)
            if adaptive and len(results) >= next_milestone and len(results) < k:
                corrected = min(_re_estimate(ctx, len(results), k, distance), qdmax())
                if tracer.enabled:
                    tracer.event("edmax", reason="milestone", old=edmax_value,
                                 new=corrected, actual=distance)
                edmax_value = corrected
                next_milestone += max(k // 4, 1)
            continue
        safe_bound = qdmax()
        if safe_bound <= edmax_value:
            # Line 8: the safe bound has caught up; the estimate is moot
            # and the run degenerates into B-KDJ from here on.
            if estimate_active:
                estimate_active = False
                if tracer.enabled:
                    tracer.event("edmax", reason="safe-bound", old=edmax_value,
                                 new=safe_bound, actual=safe_bound)
            edmax_value = safe_bound
        if edmax_value < safe_bound:
            min_unsafe_cutoff = min(min_unsafe_cutoff, edmax_value)
        # Per node expansion, not per candidate pair.
        cutoffs(edmax_value, safe_bound)
        cutoff_now = edmax_value
        children_r = ctx.children_r(payload.a)
        children_s = ctx.children_s(payload.b)
        record = sweeper.expand(
            payload.a,
            payload.b,
            children_r,
            children_s,
            axis_limit=lambda: cutoff_now,
            real_limit=qdmax,
            emit=emit,
            keep_record=True,
            pair_distance=distance,
        )
        assert record is not None
        push()
        comp_queue.enqueue(record)
        batch.tick(children=len(children_r) + len(children_s))
    run.end_stage(results=len(results))

    # ------------------------------------------------------------------
    # Stage two: compensation (Algorithm 3)
    # ------------------------------------------------------------------
    if stage == 2 or need_compensation or (len(results) < k and comp_queue):
        stage = 2
        batch = run.begin_stage(
            "compensation", cutoffs=(qdmax(), qdmax()), batch="expand:compensate"
        )
        tracer.event("compensation_resume", records=len(comp_queue),
                     produced=len(results), qdmax=qdmax())
        # On a stage-two resume the drain already happened before the
        # checkpoint: the pending records ride inside the restored main
        # queue as payload.record, so there is nothing left to insert.
        for record in comp_queue.drain():
            queue.insert(record.distance, PairPayload(record.a, record.b, record))

        while len(results) < k and queue:
            step()
            distance, payload = queue.pop()
            if payload.is_object_pair:
                results.append(ResultPair(distance, payload.a.ref, payload.b.ref))
                result(distance)
                continue
            if payload.record is not None:
                # The record kept the child lists sorted in stage one, so
                # compensation needs no node refetch and no re-sort —
                # this is why Table 2 reports identical node-access
                # counts for AM-KDJ and B-KDJ.
                sweeper.compensate(
                    payload.record,
                    axis_limit=qdmax,
                    real_limit=qdmax,
                    emit=emit,
                )
                push()
                batch.tick(resumed=1)
            else:
                sweeper.expand(
                    payload.a,
                    payload.b,
                    ctx.children_r(payload.a),
                    ctx.children_s(payload.b),
                    axis_limit=qdmax,
                    real_limit=qdmax,
                    emit=emit,
                )
                push()
                batch.tick(fresh=1)

    run.close(results=len(results))
    stats = ctx.make_stats("amkdj", k, len(results))
    stats.distance_queue_insertions = distance_queue.insertions
    stats.compensation_stages = stage - 1
    stats.compensation_peak = comp_queue.peak_size
    stats.edmax_initial = initial_edmax
    return results, stats


def _re_estimate(ctx: JoinContext, k0: int, k: int, dmax_k0: float) -> float:
    """Section 4.3.2 correction at a milestone, aggressive flavor."""
    if ctx.rho is None:
        return math.inf
    return estimation.corrected_edmax(dmax_k0, k0, k, ctx.rho, aggressive=True)
