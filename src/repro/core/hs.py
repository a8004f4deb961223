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

from repro.core.base import JoinContext, pick_expansion_side
from repro.core.pairs import Item, PairPayload, ResultPair
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

    ``resume`` is a checkpoint's ``engine`` state: queue, expansion flip
    and produced-count are restored and the traversal continues with the
    byte-identical remaining stream.  ``emitted`` lets a k-bounded
    caller (HS-KDJ) hand in its accumulated result list so checkpoints
    capture it; stream consumers (HS-IDJ) pass ``None`` — their emitted
    pairs are already out and the watermark stands in for them.
    """
    # On resume the roots were consumed (and charged) pre-checkpoint;
    # re-fetching them would skew node-access counters.
    roots = ctx.root_items() if resume is None else None
    if roots is None and resume is None:
        return
    queue = ctx.main_queue
    # HS has no plane sweep, but the flat hot path still serves its
    # tagged child batches as zero-copy arena entry blocks (attached to
    # ctx.instr by this call).
    ctx.flat_path()
    tracer = ctx.instr.tracer
    metrics = ctx.instr.metrics
    result_hist = metrics.histogram("result_distance") if metrics is not None else None
    live = ctx.instr.live
    if live is not None:
        live.set_stage("traversal")
    if resume is not None:
        queue.restore(resume["queue"])
        if distance_queue is not None:
            distance_queue.restore(resume["dq"])
        flip = resume["flip"]
        ctx.restore_buffers(resume.get("buffers"))
    else:
        root_r, root_s = roots
        start_distance = ctx.instr.real_distance(root_r.rect, root_s.rect)
        queue.insert(start_distance, PairPayload(root_r, root_s))
        flip = False

    def qdmax() -> float:
        return distance_queue.cutoff if distance_queue is not None else math.inf

    name = "join:hs-kdj" if distance_queue is not None else "join:hs-idj"
    tracer.begin(name)
    tracer.begin("stage:traversal")
    batch = tracer.batcher("expand")
    produced = resume["produced"] if resume is not None else 0
    deadline = ctx.deadline
    ckpt = ctx.checkpoint
    algorithm = "hs-kdj" if distance_queue is not None else "hs-idj"

    def build_checkpoint() -> dict:
        stats = ctx.make_stats(algorithm, produced, produced)
        if distance_queue is not None:
            stats.distance_queue_insertions = distance_queue.insertions
        return {
            "mode": "exact",
            "engine": {
                "queue": queue.snapshot(),
                "dq": distance_queue.snapshot() if distance_queue is not None else None,
                "flip": flip,
                "produced": produced,
                "results": list(emitted) if emitted is not None else None,
                "buffers": ctx.buffer_state(),
            },
            "stats": stats,
        }

    # Staged inserts, bulk-pushed after each expansion (the distance
    # queue is fed immediately — its cutoff filters the candidates; the
    # main queue's pop order is insertion-timing invariant within one
    # expansion).
    staged: list[tuple[float, PairPayload]] = []

    try:
        while queue:
            deadline.tick()
            if ckpt is not None:
                ckpt.barrier(build_checkpoint)
            distance, payload = queue.pop()
            if distance > qdmax():
                # Everything still queued is at least this far: by the time
                # this triggers the k results are already out, but the guard
                # keeps the traversal safe under any caller behavior.
                continue
            if payload.is_object_pair:
                produced += 1
                if ckpt is not None:
                    ckpt.note_emit()
                if result_hist is not None:
                    result_hist.observe(distance)
                if live is not None:
                    live.note_result()
                    live.set_cutoffs(qdmax(), qdmax())
                yield ResultPair(distance, payload.a.ref, payload.b.ref)
                continue
            expand_r = pick_expansion_side(
                payload.a, payload.b, ctx.options.expansion_policy, flip
            )
            flip = not flip
            if expand_r:
                children = ctx.children_r(payload.a)
                partner = payload.b
            else:
                children = ctx.children_s(payload.b)
                partner = payload.a
            batch.tick(children=len(children))
            cutoff = qdmax() if ctx.options.hs_insert_pruning else math.inf
            # HS pairs the partner with *every* child (no sweep pruning),
            # so the whole child list is one kernel batch; all distances
            # are computed (and charged), but only candidates within the
            # cutoff-at-batch-start cross back into Python.  qDmax only
            # tightens, so that set is a superset of the true survivors;
            # each candidate is re-checked against the live cutoff below.
            # The expanded node's (side, ref) tags the batch so the
            # backend packs each node's children once, however many
            # partners it is re-expanded against.
            expanded = payload.a if expand_r else payload.b
            candidates = ctx.instr.mindist_within_items(
                partner.rect, children, cutoff, tag=(expand_r, expanded.ref)
            )
            for i, real in candidates:
                if real > cutoff:
                    continue
                child = children[i]
                pair = (
                    PairPayload(child, partner) if expand_r
                    else PairPayload(partner, child)
                )
                staged.append((real, pair))
                if pair.is_object_pair and distance_queue is not None:
                    if tracer.enabled:
                        before = distance_queue.cutoff
                        distance_queue.insert(real)
                        after = distance_queue.cutoff
                        if after < before:
                            tracer.event("qdmax", old=before, new=after)
                    else:
                        distance_queue.insert(real)
                    cutoff = qdmax()
                elif distance_queue is not None and ctx.options.distance_queue_all_pairs:
                    distance_queue.insert(pair.a.rect.max_dist(pair.b.rect))
                    cutoff = qdmax()
            if staged:
                queue.push_many(staged)
                staged.clear()
    finally:
        # The caller abandons the generator after k results (or the user
        # walks away from an IDJ stream); close the spans either way so
        # partial traces still nest correctly.
        batch.flush()
        tracer.end("stage:traversal")
        tracer.end(name, results=produced)


def hs_kdj(
    ctx: JoinContext, k: int, resume: dict | None = None
) -> tuple[list[ResultPair], JoinStats]:
    """HS-KDJ: the k nearest pairs via uni-directional expansion."""
    if k <= 0:
        raise ValueError("k must be positive")
    distance_queue = DistanceQueue(k)
    results: list[ResultPair] = []
    if resume is not None:
        results.extend(resume["results"])
    if ctx.instr.live is not None:
        ctx.instr.live.start("hs-kdj", k)
    generator = hs_incremental(ctx, distance_queue, resume=resume, emitted=results)
    if len(results) < k:
        for pair in generator:
            results.append(pair)
            if len(results) == k:
                break
    # Explicit close (not GC) so the traversal's trace spans end before
    # the stats snapshot and before the run's tracer is closed.
    generator.close()
    stats = ctx.make_stats("hs-kdj", k, len(results))
    stats.distance_queue_insertions = distance_queue.insertions
    return results, stats


def hs_idj(ctx: JoinContext, resume: dict | None = None) -> Iterator[ResultPair]:
    """HS-IDJ: unbounded incremental stream (no distance queue)."""
    return hs_incremental(ctx, None, resume=resume)
