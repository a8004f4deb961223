"""SJ-SORT: spatial join with a within-predicate, then an external sort.

The paper's non-incremental baseline (Section 5): run an R-tree spatial
join (Brinkhoff, Kriegel, Seeger — SIGMOD'93 synchronized traversal,
restricting child pairs with a plane sweep) with the predicate
``dist(r, s) <= Dmax``, then sort the qualifying pairs by distance and
return the first k.  The paper grants this baseline the *favorable
assumption* that the true ``Dmax(k)`` is known a priori; reproduce that
by computing it with an exact oracle (see
:func:`repro.core.api.true_dmax`) and passing it in.

Because the traversal is depth-first with a plain stack, SJ-SORT needs no
priority queue — its I/O lies in node accesses and the external sort.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.base import JoinContext
from repro.core.pairs import Item, PairPayload, ResultPair
from repro.core.planesweep import PlaneSweeper, static_cutoff
from repro.core.stats import JoinStats
from repro.queues.external_sort import ExternalSorter


def spatial_join_within(ctx: JoinContext, dmax: float) -> Iterator[ResultPair]:
    """All object pairs within ``dmax``, in arbitrary order.

    Synchronized depth-first traversal of both trees; at every node pair
    the optimized plane sweep (with the static cutoff ``dmax``) selects
    which child pairs to descend into.
    """
    roots = ctx.root_items()
    if roots is None:
        return
    sweeper = PlaneSweeper(
        ctx.instr, ctx.options.optimize_axis, ctx.options.optimize_direction
    )
    limit = static_cutoff(dmax)

    root_r, root_s = roots
    if ctx.instr.real_distance(root_r.rect, root_s.rect) > dmax:
        return
    stack: list[PairPayload] = [PairPayload(root_r, root_s)]
    output: list[ResultPair] = []

    def emit(item_r: Item, item_s: Item, real: float) -> None:
        if item_r.is_object and item_s.is_object:
            output.append(ResultPair(real, item_r.ref, item_s.ref))
        else:
            stack.append(PairPayload(item_r, item_s))

    tracer = ctx.instr.tracer
    metrics = ctx.instr.metrics
    result_hist = metrics.histogram("result_distance") if metrics is not None else None
    live = ctx.instr.live
    if live is not None:
        live.set_stage("traversal")
        live.set_cutoffs(dmax, dmax)
    tracer.begin("join:within", dmax=dmax)
    tracer.begin("stage:traversal")
    batch = tracer.batcher("expand")
    produced = 0
    deadline = ctx.deadline
    ckpt = ctx.checkpoint

    def build_checkpoint() -> dict:
        # SJ-SORT is a replay engine: its DFS stack holds borrowed node
        # references whose restoration could not skip the external sort
        # anyway, so a resume re-runs the join from scratch.  The
        # checkpoint still records progress for partial stats and the
        # restart marker.
        stats = ctx.make_stats("sj-sort", produced, produced)
        stats.queue_insertions = produced
        stats.extra["dmax"] = dmax
        return {
            "mode": "replay",
            "engine": {"produced": produced},
            "stats": stats,
        }

    try:
        while stack:
            deadline.tick()
            if ckpt is not None:
                ckpt.barrier(build_checkpoint)
            payload = stack.pop()
            children_r = ctx.children_r(payload.a)
            children_s = ctx.children_s(payload.b)
            sweeper.expand(
                payload.a,
                payload.b,
                children_r,
                children_s,
                axis_limit=limit,
                real_limit=limit,
                emit=emit,
            )
            batch.tick(children=len(children_r) + len(children_s))
            while output:
                pair = output.pop()
                produced += 1
                if ckpt is not None:
                    ckpt.note_emit()
                if result_hist is not None:
                    result_hist.observe(pair.distance)
                if live is not None:
                    live.note_result()
                yield pair
    finally:
        # Close the spans even when the consumer abandons the stream
        # (sj_sort stops at k results) so partial traces stay nested.
        batch.flush()
        tracer.end("stage:traversal")
        tracer.end("join:within", results=produced)


def sj_sort(
    ctx: JoinContext, k: int, dmax: float
) -> tuple[list[ResultPair], JoinStats]:
    """Spatial join within ``dmax``, external sort, first k pairs."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not dmax >= 0.0:  # also rejects NaN, for which ``dmax < 0`` is False
        raise ValueError("dmax must be non-negative")
    sorter = ExternalSorter(ctx.disk, ctx.queue_memory)
    candidates = 0
    if ctx.instr.live is not None:
        # The within-join streams *candidates*; the top-k selection
        # happens after the sort, so note_result over-reports against k.
        # Report the candidate stream without k instead.
        ctx.instr.live.start("sj-sort", 0)
    source = spatial_join_within(ctx, dmax)

    def keyed() -> Iterator[tuple[float, ResultPair]]:
        nonlocal candidates
        for pair in source:
            candidates += 1
            yield (pair.distance, pair)

    results: list[ResultPair] = []
    try:
        for _, pair in sorter.sort(keyed()):
            results.append(pair)
            if len(results) == k:
                break
    finally:
        # Explicit close (not GC) so the traversal's trace spans end
        # before the stats snapshot and the run's tracer close.
        source.close()

    stats = ctx.make_stats("sj-sort", k, len(results))
    # SJ-SORT has no priority queue; report sort-record traffic in the
    # queue-insertions column so Figure 10(b) can show all algorithms.
    stats.queue_insertions = candidates
    stats.extra["sort_candidates"] = float(candidates)
    stats.extra["sort_runs"] = float(sorter.runs_created)
    stats.extra["dmax"] = dmax
    return results, stats
