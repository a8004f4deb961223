"""B-KDJ: k-distance join with bidirectional expansion (Algorithm 1).

Single-stage algorithm: one main queue, one k-bounded distance queue.
Every dequeued non-object pair is expanded *bidirectionally* — children
of both nodes, pruned by the optimized plane sweep with the safe cutoff
``qDmax`` applied both to axis distances (scan termination) and to real
distances (insertion filter).  Object pairs stream out of the main queue
in increasing distance order.
"""

from __future__ import annotations

from repro.core.base import JoinContext
from repro.core.pairs import Item, PairPayload, ResultPair
from repro.core.planesweep import PlaneSweeper
from repro.core.stats import JoinStats
from repro.obs.metrics import StageMeter
from repro.queues.distance_queue import DistanceQueue


def bkdj(
    ctx: JoinContext, k: int, resume: dict | None = None
) -> tuple[list[ResultPair], JoinStats]:
    """Run Algorithm 1 and return the k nearest pairs with run metrics.

    ``resume`` is a checkpoint's ``engine`` state (mode ``"exact"``):
    the queues and emitted results are restored verbatim and the loop
    continues from the captured boundary, so the remaining stream is
    byte-identical to an uninterrupted run.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    results: list[ResultPair] = []
    # On resume the roots are already consumed (and their accesses
    # charged) by the checkpointed run; fetching them again would skew
    # node-access counters.
    roots = ctx.root_items() if resume is None else None
    if roots is None and resume is None:
        return results, ctx.make_stats("bkdj", k, 0)

    queue = ctx.main_queue
    distance_queue = DistanceQueue(k)
    sweeper = PlaneSweeper(
        ctx.instr, ctx.options.optimize_axis, ctx.options.optimize_direction
    )
    tracer = ctx.instr.tracer
    metrics = ctx.instr.metrics
    result_hist = metrics.histogram("result_distance") if metrics is not None else None
    live = ctx.instr.live
    if live is not None:
        live.start("bkdj", k)
        live.set_stage("traversal")

    def qdmax() -> float:
        return distance_queue.cutoff

    # Emitted pairs are staged and bulk-pushed after each expansion (one
    # heapq-merge instead of N pushes).  The distance queue is fed
    # immediately — its cutoff drives the live sweep pruning — and the
    # main queue's pop order never depends on insertion timing within
    # one expansion, so the staging is invisible to the result stream.
    staged: list[tuple[float, PairPayload]] = []

    def emit(item_r: Item, item_s: Item, real: float) -> None:
        pair = PairPayload(item_r, item_s)
        staged.append((real, pair))
        if pair.is_object_pair:
            if tracer.enabled:
                before = distance_queue.cutoff
                distance_queue.insert(real)
                after = distance_queue.cutoff
                if after < before:
                    tracer.event("qdmax", old=before, new=after)
            else:
                distance_queue.insert(real)
        elif ctx.options.distance_queue_all_pairs:
            distance_queue.insert(item_r.rect.max_dist(item_s.rect))

    tracer.begin("join:bkdj", k=k)
    tracer.begin("stage:traversal")
    batch = tracer.batcher("expand")
    # Meter baseline before the root-pair distance: every charged
    # computation lands in a stage delta.
    meter = StageMeter(ctx.instr) if tracer.enabled or metrics is not None else None

    if resume is not None:
        # The root pair (and its charged distance) was consumed by the
        # checkpointed run; restoring the queues stands in for it.
        results = list(resume["results"])
        queue.restore(resume["queue"])
        distance_queue.restore(resume["dq"])
        ctx.restore_buffers(resume.get("buffers"))
    else:
        root_r, root_s = roots
        queue.insert(ctx.instr.real_distance(root_r.rect, root_s.rect),
                     PairPayload(root_r, root_s))

    ckpt = ctx.checkpoint

    def build_checkpoint() -> dict:
        stats = ctx.make_stats("bkdj", k, len(results))
        stats.distance_queue_insertions = distance_queue.insertions
        return {
            "mode": "exact",
            "engine": {
                "results": list(results),
                "queue": queue.snapshot(),
                "dq": distance_queue.snapshot(),
                "buffers": ctx.buffer_state(),
            },
            "stats": stats,
        }

    deadline = ctx.deadline
    while len(results) < k and queue:
        deadline.tick()
        if ckpt is not None:
            ckpt.barrier(build_checkpoint)
        distance, payload = queue.pop()
        if payload.is_object_pair:
            results.append(ResultPair(distance, payload.a.ref, payload.b.ref))
            if ckpt is not None:
                ckpt.note_emit()
            if result_hist is not None:
                result_hist.observe(distance)
            if live is not None:
                live.note_result()
            continue
        if live is not None:
            # B-KDJ has no estimate; both live cutoffs are the safe bound.
            live.set_cutoffs(qdmax(), qdmax())
        children_r = ctx.children_r(payload.a)
        children_s = ctx.children_s(payload.b)
        sweeper.expand(
            payload.a,
            payload.b,
            children_r,
            children_s,
            axis_limit=qdmax,
            real_limit=qdmax,
            emit=emit,
        )
        if staged:
            queue.push_many(staged)
            staged.clear()
        batch.tick(children=len(children_r) + len(children_s))

    batch.flush()
    tracer.end("stage:traversal")
    if meter is not None:
        meter.stage_end("traversal")
    if live is not None:
        live.stage_done()
    stats = ctx.make_stats("bkdj", k, len(results))
    stats.distance_queue_insertions = distance_queue.insertions
    tracer.end("join:bkdj", results=len(results))
    return results, stats
