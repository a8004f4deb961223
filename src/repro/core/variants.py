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

import time

from repro.core.api import JoinConfig, JoinResult
from repro.core.base import JoinContext
from repro.core.pairs import ResultPair
from repro.core.sjsort import spatial_join_within
from repro.queues.binary_heap import MinHeap
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
    materialized either way).
    """
    if not dmax >= 0.0:  # also rejects NaN, for which ``dmax < 0`` is False
        raise ValueError("dmax must be non-negative")
    if order not in ("none", "distance"):
        raise ValueError("order must be 'none' or 'distance'")
    cfg = config or JoinConfig()
    metrics = None
    if cfg.collect_metrics:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    from repro.resilience.deadline import Deadline

    ctx = JoinContext(
        tree_r,
        tree_s,
        queue_memory=cfg.queue_memory,
        buffer_memory=cfg.buffer_memory,
        cost_model=cfg.cost_model,
        rho=cfg.rho,
        options=cfg.engine_options(),
        spill_dir=cfg.spill_dir,
        metrics=metrics,
        deadline=Deadline(cfg.deadline_s) if cfg.deadline_s is not None else None,
        faults=cfg.fault_plan,
    )
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
    reason).
    """
    cfg = config or JoinConfig()
    ctx = JoinContext(
        tree_r,
        tree_s,
        queue_memory=cfg.queue_memory,
        buffer_memory=cfg.buffer_memory,
        cost_model=cfg.cost_model,
        rho=cfg.rho,
        options=cfg.engine_options(),
    )
    started = time.perf_counter()
    results: list[ResultPair] = []
    try:
        if tree_r.size and tree_s.size:
            for entry in tree_r.iter_leaf_entries():
                results.append(_nearest_in(ctx, entry.rect, entry.ref))
    finally:
        ctx.close()
    results.sort(key=lambda pair: pair.ref_r)
    stats = ctx.make_stats("ann-join", 0, len(results))
    stats.wall_time = time.perf_counter() - started
    return JoinResult(results, stats)


def _nearest_in(ctx: JoinContext, rect, ref_r: int) -> ResultPair:
    """Best-first nearest-neighbor search in S for one R rectangle."""
    heap: MinHeap[float] = MinHeap()
    root = ctx.accessor_s.root
    heap.push(ctx.instr.real_distance(rect, root.mbr()), ("node", root.page_id))
    while heap:
        distance, (kind, target) = heap.pop()
        if kind == "object":
            return ResultPair(distance, ref_r, target)
        node = ctx.accessor_s.get(target)
        child_kind = "object" if node.is_leaf else "node"
        for entry in node.entries:
            heap.push(
                ctx.instr.real_distance(rect, entry.rect),
                (child_kind, entry.ref),
            )
    raise RuntimeError("S tree unexpectedly empty during aNN search")
