"""B-KDJ: k-distance join with bidirectional expansion (Algorithm 1).

Single-stage algorithm: one main queue, one k-bounded distance queue.
Every dequeued non-object pair is expanded *bidirectionally* — children
of both nodes, pruned by the optimized plane sweep with the safe cutoff
``qDmax`` applied both to axis distances (scan termination) and to real
distances (insertion filter).  Object pairs stream out of the main queue
in increasing distance order.
"""

from __future__ import annotations

from repro.core.base import JoinContext, kdj_emit
from repro.core.pairs import ResultPair
from repro.core.planesweep import PlaneSweeper
from repro.core.stats import JoinStats
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
    queue = ctx.main_queue
    distance_queue = DistanceQueue(k)
    results: list[ResultPair] = list(resume["results"]) if resume is not None else []

    def capture() -> dict:
        stats = ctx.make_stats("bkdj", k, len(results))
        stats.distance_queue_insertions = distance_queue.insertions
        return ctx.exact_checkpoint(
            {"results": list(results), "dq": distance_queue.snapshot()}, stats
        )

    run = ctx.run("bkdj", capture, k=k)
    if not ctx.seed(resume):
        run.close(results=0)
        return results, ctx.make_stats("bkdj", k, 0)
    if resume is not None:
        distance_queue.restore(resume["dq"])
    sweeper = PlaneSweeper(
        ctx.instr, ctx.options.optimize_axis, ctx.options.optimize_direction
    )

    def qdmax() -> float:
        return distance_queue.cutoff

    emit, push = kdj_emit(ctx, distance_queue)
    batch = run.begin_stage("traversal")
    step, result, cutoffs = run.step, run.result, run.cutoffs
    while len(results) < k and queue:
        step()
        distance, payload = queue.pop()
        if payload.is_object_pair:
            results.append(ResultPair(distance, payload.a.ref, payload.b.ref))
            result(distance)
            continue
        # B-KDJ has no estimate; both live cutoffs are the safe bound.
        safe_bound = distance_queue.cutoff
        cutoffs(safe_bound, safe_bound)
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
        push()
        batch.tick(children=len(children_r) + len(children_s))

    run.close(results=len(results))
    stats = ctx.make_stats("bkdj", k, len(results))
    stats.distance_queue_insertions = distance_queue.insertions
    return results, stats
