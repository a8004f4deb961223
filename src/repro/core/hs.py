"""Hjaltason–Samet incremental distance join (the paper's baseline).

Reimplementation of the SIGMOD'98 algorithms the paper compares against:

- **HS-IDJ** — incremental distance join with *uni-directional* node
  expansion: when a pair of nodes is dequeued, one node is paired with
  every child of the other (no plane sweep, no axis pruning);
- **HS-KDJ** — the same traversal plus a k-bounded distance queue whose
  maximum (``qDmax``) prunes candidate insertions.

The known drawbacks reproduced here (Section 2.2): each node may be
fetched from disk many times (it appears in many queued pairs and is
re-expanded against different partners), and the expansion is exhaustive
over the child list, so distance computations and queue insertions are
one to two orders of magnitude above the bidirectional algorithms.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core.base import JoinContext, kdj_emit, pick_expansion_side
from repro.core.pairs import ResultPair
from repro.core.stats import JoinStats
from repro.queues.distance_queue import DistanceQueue


def hs_incremental(
    ctx: JoinContext,
    distance_queue: DistanceQueue | None = None,
    resume: dict | None = None,
    emitted: list[ResultPair] | None = None,
) -> Iterator[ResultPair]:
    """Generator producing join results in increasing distance order.

    With ``distance_queue`` given this is HS-KDJ's traversal (the caller
    stops after k results); without it, HS-IDJ.

    ``resume`` is a checkpoint's ``engine`` state: queue and
    produced-count are restored and the traversal continues with the
    byte-identical remaining stream.  ``emitted`` lets a k-bounded
    caller (HS-KDJ) hand in its accumulated result list so checkpoints
    capture it; stream consumers (HS-IDJ) pass ``None`` — their emitted
    pairs are already out and the watermark stands in for them.
    """
    kdj = distance_queue is not None
    algorithm = "hs-kdj" if kdj else "hs-idj"
    queue = ctx.main_queue
    produced = resume["produced"] if resume is not None else 0

    def capture() -> dict:
        stats = ctx.make_stats(algorithm, produced, produced)
        if kdj:
            stats.distance_queue_insertions = distance_queue.insertions
        return ctx.exact_checkpoint(
            {
                "dq": distance_queue.snapshot() if kdj else None,
                "produced": produced,
                "results": list(emitted) if emitted is not None else None,
            },
            stats,
        )

    def qdmax() -> float:
        return distance_queue.cutoff if kdj else math.inf

    run = ctx.run(algorithm, capture)
    try:
        if not ctx.seed(resume):
            return
        if resume is not None and kdj:
            distance_queue.restore(resume["dq"])
        # Off, qDmax filters nothing until dequeue: every computed pair
        # is queued (the blow-up the option exists to show).
        prune = kdj and ctx.options.hs_insert_pruning
        emit, push = kdj_emit(ctx, distance_queue)
        batch = run.begin_stage("traversal")
        step, result, cutoffs = run.step, run.result, run.cutoffs
        while queue:
            step()
            distance, payload = queue.pop()
            if distance > qdmax():
                # Everything still queued is at least this far: by the time
                # this triggers the k results are already out, but the guard
                # keeps the traversal safe under any caller behavior.
                continue
            if payload.is_object_pair:
                produced += 1
                result(distance)
                bound = qdmax()
                cutoffs(bound, bound)
                yield ResultPair(distance, payload.a.ref, payload.b.ref)
                continue
            expand_r = pick_expansion_side(payload.a, payload.b)
            if expand_r:
                children = ctx.children_r(payload.a)
                partner = payload.b
            else:
                children = ctx.children_s(payload.b)
                partner = payload.a
            batch.tick(children=len(children))
            cutoff = qdmax() if prune else math.inf
            # HS pairs the partner with *every* child (no sweep pruning),
            # so every child's distance is counted and charged, but only
            # the children within the cutoff-at-call-start are computed
            # and come back, in child order.  qDmax only tightens, so that
            # set is a superset of the true survivors; each candidate is
            # re-checked against the live cutoff below.  The expanded
            # node's (side, ref) tags the call so each node's children
            # are sorted for the bounded scan once, however many partners
            # it is re-expanded against.
            expanded = payload.a if expand_r else payload.b
            candidates = ctx.instr.mindist_within_items(
                partner.rect, children, cutoff, tag=(expand_r, expanded.ref)
            )
            for i, real in candidates:
                if real > cutoff:
                    continue
                if expand_r:
                    emit(children[i], partner, real)
                else:
                    emit(partner, children[i], real)
                if prune:
                    cutoff = distance_queue.cutoff
            push()
    finally:
        # The caller abandons the generator after k results (or the user
        # walks away from an IDJ stream); close the spans either way so
        # partial traces still nest correctly.
        run.close(results=produced)


def hs_kdj(
    ctx: JoinContext, k: int, resume: dict | None = None
) -> tuple[list[ResultPair], JoinStats]:
    """HS-KDJ: the k nearest pairs via uni-directional expansion."""
    if k <= 0:
        raise ValueError("k must be positive")
    distance_queue = DistanceQueue(k)
    results: list[ResultPair] = list(resume["results"]) if resume is not None else []
    generator = hs_incremental(ctx, distance_queue, resume=resume, emitted=results)
    if len(results) < k:
        for pair in generator:
            results.append(pair)
            if len(results) == k:
                break
    # Explicit close (not GC) so the traversal's trace spans and stage
    # deltas land before the stats snapshot and the run's tracer close.
    generator.close()
    stats = ctx.make_stats("hs-kdj", k, len(results))
    stats.distance_queue_insertions = distance_queue.insertions
    return results, stats


def hs_idj(ctx: JoinContext, resume: dict | None = None) -> Iterator[ResultPair]:
    """HS-IDJ: unbounded incremental stream (no distance queue)."""
    return hs_incremental(ctx, None, resume=resume)
