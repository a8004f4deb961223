"""AM-IDJ: adaptive multi-stage *incremental* distance join (Section 4.2).

For on-line processing the stopping cardinality is unknown, so there is
no distance queue and no ``qDmax``; the estimated ``eDmax`` is the only
pruning cutoff.  The algorithm runs in stages: stage ``i`` prunes both
axis and real distances with ``eDmax_i`` (estimated for a target
cardinality ``k_i``) and records every expanded pair; when the main
queue's minimum exceeds ``eDmax_i`` — or the queue runs dry — a new stage
begins with a larger target ``k_{i+1}`` and a corrected ``eDmax_{i+1}``
(Section 4.3.2), and the recorded pairs re-enter the queue so their
previously pruned child pairs can be recovered.

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
from repro.core.base import JoinContext
from repro.core.pairs import Item, PairPayload, ResultPair
from repro.core.planesweep import ExpansionRecord, PlaneSweeper, static_cutoff
from repro.geometry.distances import max_distance
from repro.obs.metrics import StageMeter

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
    # On resume the roots were consumed (and charged) pre-checkpoint;
    # re-fetching them would skew node-access counters.
    roots = ctx.root_items() if resume is None else None
    if roots is None and resume is None:
        return

    queue = ctx.main_queue
    records: list[ExpansionRecord] = []
    sweeper = PlaneSweeper(
        ctx.instr, ctx.options.optimize_axis, ctx.options.optimize_direction,
        flat=ctx.flat_path(),
    )
    tracer = ctx.instr.tracer
    metrics = ctx.instr.metrics
    result_hist = metrics.histogram("result_distance") if metrics is not None else None
    live = ctx.instr.live

    schedule = list(edmax_schedule or [])
    target_k = initial_k
    if resume is not None:
        schedule = list(resume["schedule"])
        target_k = resume["target_k"]
        edmax = resume["edmax"]
        produced = resume["produced"]
        last_distance = resume["last_distance"]
        saved = resume["state"]
        state.stage = saved["stage"]
        state.edmax = saved["edmax"]
        state.produced = saved["produced"]
        state.compensations = saved["compensations"]
        state.comp_records_peak = saved["comp_records_peak"]
    else:
        edmax = schedule.pop(0) if schedule else ctx.initial_edmax(target_k)
        if not math.isfinite(edmax):
            # No density model: fall back to a diameter-bounded cutoff so
            # the algorithm still terminates (degenerates to one giant
            # stage).
            edmax = _space_diameter(ctx)
        state.edmax = edmax
        produced = 0
        last_distance = 0.0

    # Staged inserts, bulk-pushed after each sweep (pop order is
    # insertion-timing invariant within one expansion).
    staged: list[tuple[float, PairPayload]] = []

    def emit(item_r: Item, item_s: Item, real: float) -> None:
        staged.append((real, PairPayload(item_r, item_s)))

    if live is not None:
        live.set_stage(f"s{state.stage}")
        live.set_cutoffs(edmax, math.inf)
    tracer.begin("join:amidj", initial_k=initial_k)
    tracer.event("edmax", reason="init", old=math.inf, new=edmax, actual=math.inf)
    stage_name = f"stage:{state.stage}"
    tracer.begin(stage_name, edmax=edmax)
    batch = tracer.batcher("expand")
    # Meter baseline before the root-pair distance: every charged
    # computation lands in a stage delta.
    meter = StageMeter(ctx.instr) if tracer.enabled or metrics is not None else None

    if resume is not None:
        queue.restore(resume["queue"])
        records = list(resume["records"])
        ctx.restore_buffers(resume.get("buffers"))
    else:
        root_r, root_s = roots
        queue.insert(
            ctx.instr.real_distance(root_r.rect, root_s.rect),
            PairPayload(root_r, root_s),
        )

    ckpt = ctx.checkpoint

    def build_checkpoint() -> dict:
        stats = ctx.make_stats("amidj", produced, produced)
        stats.compensation_stages = state.compensations
        stats.compensation_peak = state.comp_records_peak
        return {
            "mode": "exact",
            "engine": {
                "queue": queue.snapshot(),
                "records": list(records),
                "schedule": list(schedule),
                "target_k": target_k,
                "edmax": edmax,
                "produced": produced,
                "last_distance": last_distance,
                "buffers": ctx.buffer_state(),
                "state": {
                    "stage": state.stage,
                    "edmax": state.edmax,
                    "produced": state.produced,
                    "compensations": state.compensations,
                    "comp_records_peak": state.comp_records_peak,
                },
            },
            "stats": stats,
        }

    def advance_stage() -> float:
        """Stage boundary: close the span, re-estimate, resume records."""
        nonlocal stage_name, target_k
        batch.flush()
        tracer.end(stage_name, results=produced)
        if meter is not None:
            meter.stage_end(f"s{state.stage}")
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
        stage_name = f"stage:{state.stage}"
        if live is not None:
            live.stage_done()
            live.set_stage(f"s{state.stage}")
            live.set_cutoffs(new_edmax, math.inf)
        tracer.begin(stage_name, edmax=new_edmax)
        return new_edmax

    deadline = ctx.deadline
    no_real_filter = static_cutoff(math.inf)
    try:
        while True:
            deadline.tick()
            if ckpt is not None:
                ckpt.barrier(build_checkpoint)
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
                if ckpt is not None:
                    ckpt.note_emit()
                if result_hist is not None:
                    result_hist.observe(distance)
                if live is not None:
                    live.note_result()
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
                    new_record_real_cutoff=None,
                )
                if staged:
                    queue.push_many(staged)
                    staged.clear()
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
                    record_real_cutoff=None,
                )
                assert record is not None
                if staged:
                    queue.push_many(staged)
                    staged.clear()
                batch.tick(fresh=1)
            if not _exhausted(ctx, record, cutoff_now):
                records.append(record)
                if len(records) > state.comp_records_peak:
                    state.comp_records_peak = len(records)
    finally:
        # Runs at exhaustion or when the caller abandons the stream
        # (GeneratorExit): close the open spans so the trace stays
        # well-nested even for partial pulls.
        batch.flush()
        tracer.end(stage_name, results=produced)
        if meter is not None:
            meter.stage_end(f"s{state.stage}")
        tracer.end("join:amidj", results=produced)


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


def _exhausted(ctx: JoinContext, record: ExpansionRecord, cutoff: float) -> bool:
    """True when no later stage could recover anything from this record.

    With axis-only pruning (``real_cutoff is None``) every examined pair
    was inserted, so a record is spent once all anchors scanned to the
    end of the other list.  (The extra max-distance test covers records
    produced with an unsafe real cutoff, should a caller ever create
    them.)
    """
    if not record.fully_swept():
        return False
    if record.real_cutoff is None:
        return True
    return cutoff >= max_distance(record.a.rect, record.b.rect)


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
