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

from repro.core.base import JoinContext, JoinRun
from repro.core.pairs import Item, PairPayload, ResultPair
from repro.core.planesweep import PlaneSweeper, static_cutoff
from repro.core.stats import JoinStats
from repro.queues.external_sort import ExternalSorter


def spatial_join_within(ctx: JoinContext, dmax: float) -> Iterator[ResultPair]:
    """All object pairs within ``dmax``, in arbitrary order.

    Synchronized depth-first traversal of both trees; at every node pair
    the optimized plane sweep (with the static cutoff ``dmax``) selects
    which child pairs to descend into.  Traced as ``join:within`` with
    one ``stage:traversal``.
    """
    produced = 0
    run = ctx.run(
        "within", lambda: _replay_checkpoint(ctx, "within-join", produced, dmax),
        dmax=dmax,
    )
    try:
        for pair in _traverse(ctx, run, dmax):
            produced += 1
            yield pair
    finally:
        # Close the spans even when the consumer abandons the stream, so
        # partial traces stay nested.
        run.close(results=produced)


def _traverse(ctx: JoinContext, run: JoinRun, dmax: float) -> Iterator[ResultPair]:
    """The within-join's ``traversal`` stage on an open run."""
    batch = run.begin_stage("traversal", cutoffs=(dmax, dmax))
    roots = ctx.root_items()
    if roots is None:
        return
    root_r, root_s = roots
    if ctx.instr.real_distance(root_r.rect, root_s.rect) > dmax:
        return
    sweeper = PlaneSweeper(
        ctx.instr, ctx.options.optimize_axis, ctx.options.optimize_direction
    )
    limit = static_cutoff(dmax)
    stack: list[PairPayload] = [PairPayload(root_r, root_s)]
    output: list[ResultPair] = []

    def emit(item_r: Item, item_s: Item, real: float) -> None:
        if item_r.is_object and item_s.is_object:
            output.append(ResultPair(real, item_r.ref, item_s.ref))
        else:
            stack.append(PairPayload(item_r, item_s))

    step, result = run.step, run.result
    while stack:
        step()
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
            result(pair.distance)
            yield pair


def _replay_checkpoint(ctx: JoinContext, algorithm: str, produced: int, dmax: float) -> dict:
    """A replay body: progress for partial stats; a resume re-runs the join.

    Restoring the DFS stack could not skip SJ-SORT's external sort anyway.
    """
    stats = ctx.make_stats(algorithm, produced, produced)
    stats.queue_insertions = produced
    stats.extra["dmax"] = dmax
    return {"mode": "replay", "engine": {"produced": produced}, "stats": stats}


def sj_sort(
    ctx: JoinContext, k: int, dmax: float
) -> tuple[list[ResultPair], JoinStats]:
    """Spatial join within ``dmax``, external sort, first k pairs.

    Two stages under ``join:within``: ``traversal``, which includes the
    sort's run formation (it drains the traversal), and ``sort``, the
    external merge up to the k-th pair.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not dmax >= 0.0:  # also rejects NaN, for which ``dmax < 0`` is False
        raise ValueError("dmax must be non-negative")
    sorter = ExternalSorter(ctx.disk, ctx.queue_memory)
    candidates = 0
    run = ctx.run(
        "within", lambda: _replay_checkpoint(ctx, "sj-sort", candidates, dmax),
        dmax=dmax,
    )

    def keyed() -> Iterator[tuple[float, ResultPair]]:
        nonlocal candidates
        for pair in _traverse(ctx, run, dmax):
            candidates += 1
            yield (pair.distance, pair)

    merged = sorter.sort(keyed())
    run.end_stage()
    run.begin_stage("sort")
    results: list[ResultPair] = []
    for _, pair in merged:
        results.append(pair)
        if len(results) == k:
            break
    run.end_stage(results=len(results))
    run.close(results=candidates)

    stats = ctx.make_stats("sj-sort", k, len(results))
    # SJ-SORT has no priority queue; report sort-record traffic in the
    # queue-insertions column so Figure 10(b) can show all algorithms.
    stats.queue_insertions = candidates
    stats.extra["sort_candidates"] = float(candidates)
    stats.extra["sort_runs"] = float(sorter.runs_created)
    stats.extra["dmax"] = dmax
    return results, stats
