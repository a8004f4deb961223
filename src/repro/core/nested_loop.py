"""Block nested-loop k-distance join — the index-free floor.

Not part of the paper's lineup, but the natural baseline below SJ-SORT:
scan both datasets, compute every pair distance, keep the k smallest.
Included because a production library should ship the dumb-but-exact
fallback (it is also an independent oracle for the other five engines),
and because it shows *why* the paper's algorithms exist: the nested loop
performs |R| x |S| distance computations no matter what k is.

The implementation is a classic block nested-loop join: the outer
relation is processed in memory-sized blocks, the inner relation is
rescanned once per block (that is the I/O the simulated disk is charged
for — sequential, since a real BNL streams pages).  Distance kernels are
vectorized with NumPy when it is importable, else each pair runs the
scalar :func:`~repro.geometry.distances.min_distance` (bit-identical);
the distance-computation *count* is exact (|R| x |S|) either way.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.base import JoinContext
from repro.core.pairs import ResultPair
from repro.core.stats import JoinStats
from repro.geometry.distances import min_distance

try:  # NumPy is optional: without it the scan runs the scalar distance
    import numpy as _np

    from repro.kernels.numpy_backend import exact_distances
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI leg
    _np = None

#: Inner-relation chunk height for the vectorized kernel (bounds the
#: temporary distance matrix to block * chunk doubles).
INNER_CHUNK = 4096


def nested_loop_kdj(ctx: JoinContext, k: int) -> tuple[list[ResultPair], JoinStats]:
    """Exact k nearest pairs by exhaustive blockwise comparison."""
    if k <= 0:
        raise ValueError("k must be positive")
    rects_r, ids_r = _gather(ctx.tree_r)
    rects_s, ids_s = _gather(ctx.tree_s)

    def capture() -> dict:
        # NLJ is a replay engine: nothing streams out until the final
        # sort, so a resume recomputes from scratch.  The checkpoint
        # records scan progress for partial stats and the restart marker.
        stats = ctx.make_stats("nlj", k, 0)
        stats.extra["outer_scanned"] = float(r_start)
        stats.extra["outer_total"] = float(len(ids_r))
        return {"mode": "replay", "engine": {"outer_scanned": r_start}, "stats": stats}

    run = ctx.run("nlj", capture, k=k)
    if not ids_r or not ids_s:
        run.close(results=0, pairs_compared=0)
        return [], ctx.make_stats("nlj", k, 0)
    run.begin_stage("scan")

    # Block size: the memory the paper grants the queue, spent on the
    # outer block instead (48 modeled bytes per held object).
    block = max(ctx.queue_memory // 48, 64)
    page_size = ctx.cost_model.page_size
    pages_r = max(len(ids_r) * 40 // page_size, 1)
    pages_s = max(len(ids_s) * 40 // page_size, 1)

    # One outer scan, one inner scan per outer block.
    ctx.disk.sequential_read(pages_r)
    passes = -(-len(ids_r) // block)
    ctx.disk.sequential_read(pages_s * passes)

    best = (_ArrayBest if _np is not None else _ScalarBest)(rects_r, rects_s, k)
    total_pairs = 0
    deadline = ctx.deadline
    for r_start in range(0, len(ids_r), block):
        # The barrier once per outer block: the natural stage boundary of
        # a block nested-loop scan.
        run.step()
        r_stop = min(r_start + block, len(ids_r))
        for s_start in range(0, len(ids_s), INNER_CHUNK):
            # One explicit check per chunk: iterations are few but
            # heavy, so the strided tick would react too slowly.
            deadline.check()
            s_stop = min(s_start + INNER_CHUNK, len(ids_s))
            best.scan(r_start, r_stop, s_start, s_stop)
            total_pairs += (r_stop - r_start) * (s_stop - s_start)
        # Once k pairs are held, the k-th best so far is the effective
        # cutoff.
        held, cutoff = best.held()
        if held >= k:
            run.cutoffs(cutoff, cutoff)

    ctx.instr.real_distance_computations += total_pairs
    ctx.disk.charge_cpu(total_pairs * ctx.cost_model.cpu_real_distance)

    results = [
        ResultPair(distance, ids_r[i], ids_s[j]) for distance, i, j in best.ordered()
    ]
    for pair in results:
        run.result(pair.distance)
    run.close(results=len(results), pairs_compared=total_pairs)
    stats = ctx.make_stats("nlj", k, len(results))
    stats.extra["outer_passes"] = float(passes)
    return results, stats


def _gather(tree) -> tuple[list, list[int]]:
    """All leaf entries' rects and object ids, in leaf order."""
    entries = list(tree.iter_leaf_entries())
    return [entry.rect for entry in entries], [entry.ref for entry in entries]


class _ArrayBest:
    """The k best pairs so far, in NumPy arrays.

    Each chunk's distance matrix is cut to its k smallest before it
    joins the running best; :meth:`ordered` sorts by (distance, R
    position, S position).
    """

    def __init__(self, rects_r, rects_s, k: int) -> None:
        self.r = _np.asarray([rect.as_tuple() for rect in rects_r])
        self.s = _np.asarray([rect.as_tuple() for rect in rects_s])
        self.k = k
        self.d = _np.empty(0)
        self.i = self.j = _np.empty(0, dtype=_np.int64)

    def scan(self, r_start: int, r_stop: int, s_start: int, s_stop: int) -> None:
        k = self.k
        flat = _min_distances(self.r[r_start:r_stop], self.s[s_start:s_stop]).ravel()
        if flat.size > k:
            keep = _np.argpartition(flat, k - 1)[:k]
        else:
            keep = _np.arange(flat.size)
        width = s_stop - s_start
        d = _np.concatenate([self.d, flat[keep]])
        i = _np.concatenate([self.i, keep // width + r_start])
        j = _np.concatenate([self.j, keep % width + s_start])
        if d.size > k:
            top = _np.argpartition(d, k - 1)[:k]
            d, i, j = d[top], i[top], j[top]
        self.d, self.i, self.j = d, i, j

    def held(self) -> tuple[int, float]:
        return int(self.d.size), float(self.d.max())

    def ordered(self):
        order = _np.lexsort((self.j, self.i, self.d))
        return zip(self.d[order].tolist(), self.i[order].tolist(), self.j[order].tolist())


class _ScalarBest:
    """The k smallest (distance, R position, S position) triples, without NumPy."""

    def __init__(self, rects_r, rects_s, k: int) -> None:
        self.r, self.s, self.k = rects_r, rects_s, k
        self.pairs: list[tuple[float, int, int]] = []

    def scan(self, r_start: int, r_stop: int, s_start: int, s_stop: int) -> None:
        r, s = self.r, self.s
        chunk = (
            (min_distance(r[i], s[j]), i, j)
            for i in range(r_start, r_stop)
            for j in range(s_start, s_stop)
        )
        self.pairs = heapq.nsmallest(self.k, itertools.chain(self.pairs, chunk))

    def held(self) -> tuple[int, float]:
        return len(self.pairs), self.pairs[-1][0]

    def ordered(self):
        return self.pairs


def _min_distances(a, b):
    """Pairwise minimum rectangle distances, ``(len(a), len(b))``."""
    ax_min, ay_min, ax_max, ay_max = (a[:, i : i + 1] for i in range(4))
    bx_min, by_min, bx_max, by_max = (b[None, :, i] for i in range(4))
    dx = _np.maximum(_np.maximum(ax_min - bx_max, bx_min - ax_max), 0.0)
    dy = _np.maximum(_np.maximum(ay_min - by_max, by_min - ay_max), 0.0)
    # The kernels' exact rules, bit-identical to the scalar engines'.
    return exact_distances(dx, dy)
