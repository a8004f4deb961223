"""Join variants built on the core engines.

Two operations every spatial library ends up needing next to the
k-closest-pairs join:

- :func:`within_distance_join` — the epsilon join ("all pairs within
  d"), which is the paper's ``within`` spatial-join predicate exposed as
  a first-class operation with the same metric instrumentation;
- :func:`all_nearest_neighbors` — for every object of R, its nearest
  object in S (the aNN join), implemented as grouped best-first searches
  against the S index.
"""

from __future__ import annotations

import heapq
import time

from repro.core.api import JoinConfig, JoinResult, JoinRunner
from repro.core.base import JoinContext
from repro.core.pairs import ResultPair
from repro.core.sjsort import spatial_join_within
from repro.rtree.tree import RTree


def within_distance_join(
    tree_r: RTree,
    tree_s: RTree,
    dmax: float,
    config: JoinConfig | None = None,
    order: str = "none",
) -> JoinResult:
    """All object pairs with ``dist(r, s) <= dmax``.

    ``order`` is ``"none"`` (traversal order, cheapest), or
    ``"distance"`` (ascending, via an in-memory sort — the result is
    materialized either way).  Checkpoints follow SJ-SORT's replay
    semantics: a resume re-runs the join from scratch.
    """
    if not dmax >= 0.0:  # also rejects NaN, for which ``dmax < 0`` is False
        raise ValueError("dmax must be non-negative")
    if order not in ("none", "distance"):
        raise ValueError("order must be 'none' or 'distance'")
    ctx, _ = JoinRunner(tree_r, tree_s, config).open("within", 0, modes=("replay",))
    started = time.perf_counter()
    try:
        results = list(spatial_join_within(ctx, dmax))
    finally:
        ctx.close()
    if order == "distance":
        results.sort()
    stats = ctx.make_stats("within-join", 0, len(results))
    stats.wall_time = time.perf_counter() - started
    stats.extra["dmax"] = dmax
    return JoinResult(results, stats)


def all_nearest_neighbors(
    tree_r: RTree,
    tree_s: RTree,
    config: JoinConfig | None = None,
) -> JoinResult:
    """For every object in R, its nearest object in S.

    Returns one :class:`~repro.core.pairs.ResultPair` per R object, in R
    object-id order.  Node fetches against S go through the metered
    buffer (one best-first search per R object, so locality between
    consecutive R objects is what the buffer exploits — the result list
    is built by scanning R's leaves in tree order for exactly that
    reason).  Traced as ``join:ann`` with one ``stage:search``; the
    searches have no capture point, so the run takes no checkpoints and
    raises ``ValueError`` if ``config`` sets ``resume_from`` or
    ``checkpoint_path``.
    """
    ctx, _ = JoinRunner(tree_r, tree_s, config).open("ann", 0, modes=())
    started = time.perf_counter()
    results: list[ResultPair] = []
    try:
        run = ctx.run("ann")
        if tree_r.size and tree_s.size:
            batch = run.begin_stage("search")
            for entry in tree_r.iter_leaf_entries():
                pair = _nearest_in(ctx, run.step, entry.rect, entry.ref)
                run.result(pair.distance)
                results.append(pair)
                batch.tick()
        run.close(results=len(results))
    finally:
        ctx.close()
    results.sort(key=lambda pair: pair.ref_r)
    stats = ctx.make_stats("ann-join", 0, len(results))
    stats.wall_time = time.perf_counter() - started
    return JoinResult(results, stats)


def _nearest_in(ctx: JoinContext, step, rect, ref_r: int) -> ResultPair:
    """Best-first nearest-neighbor search in S for one R rectangle.

    Heap items are ``(distance, is_node, ref)``: at equal distance an
    object pops before a node, and equal objects pop by id.
    """
    root = ctx.accessor_s.root
    heap = [(ctx.instr.real_distance(rect, root.mbr()), 1, root.page_id)]
    while heap:
        step()
        distance, is_node, target = heapq.heappop(heap)
        if not is_node:
            return ResultPair(distance, ref_r, target)
        node = ctx.accessor_s.get(target)
        child = 0 if node.is_leaf else 1
        for entry in node.entries:
            heapq.heappush(
                heap, (ctx.instr.real_distance(rect, entry.rect), child, entry.ref)
            )
    raise RuntimeError("S tree unexpectedly empty during aNN search")
