"""AM-IDJ: adaptive multi-stage *incremental* distance join (Section 4.2).

For on-line processing the stopping cardinality is unknown, so there is
no distance queue and no ``qDmax``; the estimated ``eDmax`` is the only
pruning cutoff.  The algorithm runs in stages: stage ``i`` prunes with
``eDmax_i`` (estimated for a target cardinality ``k_i``) and records
every expanded pair; when the main queue's minimum exceeds ``eDmax_i``
— or the queue runs dry — a new stage begins with a larger target
``k_{i+1}`` and a corrected ``eDmax_{i+1}`` (Section 4.3.2), and the
recorded pairs re-enter the queue so their previously pruned child
pairs can be recovered.

Pruning uses the *axis* distance only ("without qDmax" there is no safe
real-distance cutoff): every child pair within ``eDmax_i`` along the
sweeping axis is inserted, keyed by its real distance — possibly beyond
the cutoff, in which case it simply waits in the queue for a later
stage.  Compensation therefore only ever extends each anchor's scan past
its recorded resume position; nothing inside an already-scanned window
is revisited.  Results still stream out in globally increasing distance
order: any pair the axis bound pruned has real distance above the stage
cutoff, while everything yielded in stage ``i`` is at most ``eDmax_i``.

The generator is infinite up to dataset exhaustion — callers pull as many
results as they want and abandon it, exactly the paper's interactive
usage model.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core import estimation
from repro.core.base import JoinContext, kdj_emit
from repro.core.pairs import PairPayload, ResultPair
from repro.core.planesweep import ExpansionRecord, PlaneSweeper, static_cutoff

#: Stage-target growth when the user keeps asking for more results
#: (capped at |R| x |S|, see :func:`_pairs`).
TARGET_GROWTH = 2.0

#: Minimum multiplicative growth of the cutoff between stages, so a run
#: of bad estimates cannot stall the algorithm.
MIN_CUTOFF_GROWTH = 1.25


class AMIDJState:
    """Observable state of a running AM-IDJ generator (for tests/benches)."""

    def __init__(self) -> None:
        self.stage = 1
        self.edmax = 0.0
        self.produced = 0
        self.compensations = 0
        self.comp_records_peak = 0


def amidj(
    ctx: JoinContext,
    initial_k: int = 1000,
    edmax_schedule: list[float] | None = None,
    state: AMIDJState | None = None,
    resume: dict | None = None,
) -> Iterator[ResultPair]:
    """Generator of join results in increasing distance order.

    Parameters
    ----------
    ctx:
        Fresh join context.
    initial_k:
        The stage-one target cardinality ``k_1`` (a batch-size hint).
    edmax_schedule:
        Optional explicit per-stage cutoffs (Figure 15 feeds real
        ``Dmax`` values here); when exhausted or absent, Equation (3)/(5)
        estimates take over.
    state:
        Optional observable state object, updated in place.
    resume:
        Checkpoint ``engine`` state (mode ``"exact"``): queue, live
        expansion records, remaining schedule and stage bookkeeping are
        restored and the stream continues byte-identically from the
        captured boundary.
    """
    if initial_k <= 0:
        raise ValueError("initial_k must be positive")
    state = state if state is not None else AMIDJState()
    queue = ctx.main_queue
    records: list[ExpansionRecord] = []
    schedule = list(edmax_schedule or [])
    target_k = initial_k
    edmax = 0.0
    produced = 0
    last_distance = 0.0

    def capture() -> dict:
        stats = ctx.make_stats("amidj", produced, produced)
        stats.compensation_stages = state.compensations
        stats.compensation_peak = state.comp_records_peak
        return ctx.exact_checkpoint(
            {
                "records": list(records),
                "schedule": list(schedule),
                "target_k": target_k,
                "edmax": edmax,
                "produced": produced,
                "last_distance": last_distance,
                "state": dict(vars(state)),
            },
            stats,
        )

    run = ctx.run("amidj", capture, initial_k=initial_k)
    try:
        if not ctx.seed(resume):
            return
        if resume is not None:
            records = list(resume["records"])
            schedule = list(resume["schedule"])
            target_k = resume["target_k"]
            edmax = resume["edmax"]
            produced = resume["produced"]
            last_distance = resume["last_distance"]
            vars(state).update(resume["state"])
        else:
            edmax = schedule.pop(0) if schedule else ctx.initial_edmax(target_k)
            if not math.isfinite(edmax):
                # No density model: fall back to a diameter-bounded cutoff
                # so the algorithm still terminates (degenerates to one
                # giant stage).
                edmax = _space_diameter(ctx)
            state.edmax = edmax
        tracer = ctx.instr.tracer
        tracer.event("edmax", reason="init", old=math.inf, new=edmax, actual=math.inf)
        batch = run.begin_stage(
            str(state.stage), cutoffs=(edmax, math.inf), edmax=edmax
        )

        def advance_stage() -> float:
            """Stage boundary: close the stage, re-estimate, resume records."""
            nonlocal batch, target_k
            run.end_stage(results=produced)
            old_edmax = edmax
            new_edmax = _next_stage(ctx, state, schedule, produced, last_distance,
                                    target_k, edmax)
            target_k = min(
                max(int(target_k * TARGET_GROWTH), produced + initial_k), _pairs(ctx)
            )
            if tracer.enabled:
                tracer.event("edmax", reason="stage", old=old_edmax, new=new_edmax,
                             actual=last_distance)
                tracer.event("compensation_resume", records=len(records),
                             produced=produced)
            _refill(queue, records)
            batch = run.begin_stage(
                str(state.stage), cutoffs=(new_edmax, math.inf), edmax=new_edmax
            )
            return new_edmax

        sweeper = PlaneSweeper(
            ctx.instr, ctx.options.optimize_axis, ctx.options.optimize_direction
        )
        emit, push = kdj_emit(ctx, None)
        no_real_filter = static_cutoff(math.inf)
        step, result = run.step, run.result
        while True:
            step()
            if not queue:
                if not records:
                    return  # dataset exhausted: every pair has been produced
                edmax = advance_stage()
                records = []
                continue

            distance, payload = queue.pop()
            if distance > edmax and records:
                # Stage boundary: answers beyond the cutoff may have been
                # pruned; compensate before going on.
                queue.insert(distance, payload)
                edmax = advance_stage()
                records = []
                continue

            if payload.is_object_pair:
                produced += 1
                last_distance = distance
                state.produced = produced
                result(distance)
                yield ResultPair(distance, payload.a.ref, payload.b.ref)
                continue

            cutoff_now = edmax
            if payload.record is not None:
                # Sorted child lists live in the record: no refetch, no re-sort.
                record = payload.record
                sweeper.compensate(
                    record,
                    axis_limit=lambda: cutoff_now,
                    real_limit=no_real_filter,
                    emit=emit,
                )
                push()
                batch.tick(resumed=1)
            else:
                record = sweeper.expand(
                    payload.a,
                    payload.b,
                    ctx.children_r(payload.a),
                    ctx.children_s(payload.b),
                    axis_limit=lambda: cutoff_now,
                    real_limit=no_real_filter,
                    emit=emit,
                    keep_record=True,
                    pair_distance=distance,
                )
                assert record is not None
                push()
                batch.tick(fresh=1)
            if not record.fully_swept():
                records.append(record)
                if len(records) > state.comp_records_peak:
                    state.comp_records_peak = len(records)
    finally:
        # Runs at exhaustion or when the caller abandons the stream
        # (GeneratorExit): close the open spans so the trace stays
        # well-nested even for partial pulls.
        run.close(results=produced)


def _next_stage(
    ctx: JoinContext,
    state: AMIDJState,
    schedule: list[float],
    produced: int,
    last_distance: float,
    target_k: int,
    edmax: float,
) -> float:
    """Pick the next stage's cutoff: schedule, else corrected estimate."""
    state.stage += 1
    state.compensations += 1
    next_target = min(max(int(target_k * TARGET_GROWTH), produced + 1), _pairs(ctx))
    if schedule:
        candidate = schedule.pop(0)
    elif ctx.rho is not None and produced > 0:
        candidate = estimation.corrected_edmax(
            last_distance, produced, next_target, ctx.rho, aggressive=False
        )
    elif ctx.rho is not None:
        candidate = estimation.initial_edmax(next_target, ctx.rho)
    else:
        candidate = edmax * 2.0
    new_edmax = max(candidate, edmax * MIN_CUTOFF_GROWTH)
    new_edmax = min(new_edmax, _space_diameter(ctx))
    if new_edmax <= edmax:
        new_edmax = min(edmax * 2.0, _space_diameter(ctx))
        if new_edmax <= edmax:
            new_edmax = edmax + 1.0  # diameter reached: force progress
    state.edmax = new_edmax
    return new_edmax


def _refill(queue, records: list[ExpansionRecord]) -> None:
    """Push every live record back into the main queue (Algorithm 3)."""
    queue.push_many(
        [(record.distance, PairPayload(record.a, record.b, record))
         for record in records]
    )


def _pairs(ctx: JoinContext) -> int:
    """|R| x |S|, the cap on stage targets.

    No stage needs more pairs than exist, and a target doubled for the
    ~1,000 stages a far-apart pull can take would overflow to ``inf``.
    """
    return ctx.tree_r.size * ctx.tree_s.size


def _space_diameter(ctx: JoinContext) -> float:
    """Upper bound on any pair distance: diameter of the combined space."""
    bounds = ctx.tree_r.bounds().union(ctx.tree_s.bounds())
    return math.hypot(bounds.width, bounds.height) + 1.0
