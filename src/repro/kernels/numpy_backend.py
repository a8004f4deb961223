"""NumPy kernels backend: distances over whole node blocks in one call.

HS evaluates a partner against an expanded node's whole child list
(:meth:`mindist_packed_within`, or :meth:`mindist_packed`), and the
shared-memory engine crosses node blocks of the flat images
(:meth:`block_within`, :meth:`cross_within`).  Child lists come packed
as zero-copy arena slices where possible
(:meth:`repro.kernels.flat.FlatHotPath.entry_block`).

Bitwise contract: distances are ``sqrt(dx*dx + dy*dy)`` with the same
``dx == 0`` / ``dy == 0`` shortcuts, the same ``max(dx, dy)`` fallback
when both squares underflow, and the same ``math.hypot`` where they
overflow, as the scalar :func:`repro.geometry.distances.min_distance`.
IEEE-754 basic operations round identically in NumPy and CPython, so
the two paths agree bit for bit — the property the backend-equivalence
tests pin.
"""

from __future__ import annotations

import math

import numpy as np


class PackedRects:
    """Struct-of-arrays snapshot of a bare rectangle list."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, rects) -> None:
        self.xmin = np.array([r.xmin for r in rects], dtype=np.float64)
        self.ymin = np.array([r.ymin for r in rects], dtype=np.float64)
        self.xmax = np.array([r.xmax for r in rects], dtype=np.float64)
        self.ymax = np.array([r.ymax for r in rects], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.xmin)


#: Bounds for which :meth:`NumpyKernels.mindist_packed_within` may
#: prefilter on the raw ``sqrt``: squares of gaps near them are normal.
_PREFILTER_LO = 1e-150
_PREFILTER_HI = 1e150


def _gaps(rect, packed):
    """Clipped x and y gaps from ``rect`` to every packed rectangle."""
    dx = np.maximum(
        np.maximum(rect.xmin - packed.xmax, packed.xmin - rect.xmax), 0.0
    )
    dy = np.maximum(
        np.maximum(rect.ymin - packed.ymax, packed.ymin - rect.ymax), 0.0
    )
    return dx, dy


def exact_distances(dx, dy):
    """Minimum distances from clipped gap arrays, bit for bit the scalar's.

    The raw ``sqrt(dx*dx + dy*dy)`` is 0.0 where both gaps are positive
    only when both squares underflow; those pairs fall back to
    ``max(dx, dy)``, and so do the pairs where either gap is 0.0 (the
    larger gap is the other one).  It reads ``inf`` where the squares
    overflow; those few pairs take ``math.hypot``, as the scalar does,
    and the overflow raises no warning.
    """
    with np.errstate(over="ignore"):
        d = np.sqrt(dx * dx + dy * dy)
    exact = np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, d))
    exact = np.where(exact == 0.0, np.maximum(dx, dy), exact)
    over = np.nonzero(exact == np.inf)
    if over[0].size:
        exact[over] = [
            math.hypot(x, y) for x, y in zip(dx[over].tolist(), dy[over].tolist())
        ]
    return exact


class NumpyKernels:
    """Vectorized implementation of the kernel API."""

    name = "numpy"
    #: Whether HS's child-list batches go through the backend.
    batched = True
    #: Child lists shorter than this are evaluated by the scalar loop in
    #: :class:`~repro.core.stats.Instruments`: a vector call costs about
    #: as much in dispatch as this many scalar distances.
    min_window = 32

    def pack_rects(self, rects) -> PackedRects:
        """Pack a bare rect list for (repeated) ``mindist_packed`` calls."""
        return PackedRects(rects)

    def mindist_packed(self, rect, packed: PackedRects) -> list[float]:
        """Minimum distances from ``rect`` to every packed rectangle."""
        # tolist() hands plain Python floats downstream (queues serialize
        # results; np.float64 would not round-trip through json).
        return exact_distances(*_gaps(rect, packed)).tolist()

    def mindist_packed_within(
        self, rect, packed: PackedRects, bound: float
    ) -> list[tuple[int, float]]:
        """``(index, distance)`` for every packed rect within ``bound``.

        Filtering before ``tolist`` is the point: with a tight bound only
        a handful of candidates survive, so only those get boxed into
        Python floats and walked by the caller.

        The exact-distance rules are applied to the *survivors* of a
        ``np.hypot`` prefilter, in scalar code, instead of as full-width
        passes.  That is sound for a bound in ``[_PREFILTER_LO,
        _PREFILTER_HI]``: there ``hypot`` is within a few ulps of the
        exact distance of any pair near the bound (whose squares neither
        underflow nor overflow), so prefiltering with a 1e-12 margin
        yields a superset, and the exact bound is re-applied per
        survivor.  ``hypot`` never overflows, so gaps past 1.3e154 raise
        no warning.  Other bounds take the full-width rules.  Either way
        the output is bitwise identical to the scalar loop's.
        """
        dx, dy = _gaps(rect, packed)
        if not _PREFILTER_LO <= bound <= _PREFILTER_HI:
            exact = exact_distances(dx, dy)
            idx = np.nonzero(exact <= bound)[0]
            return list(zip(idx.tolist(), exact[idx].tolist()))
        idx = np.nonzero(np.hypot(dx, dy) <= bound * (1.0 + 1e-12))[0]
        hits = idx.tolist()
        if not hits:
            return []
        out = []
        for i, dxi, dyi in zip(hits, dx[idx].tolist(), dy[idx].tolist()):
            if dxi == 0.0:
                real = dyi
            elif dyi == 0.0:
                real = dxi
            else:
                real = math.sqrt(dxi * dxi + dyi * dyi) or max(dxi, dyi)
                if real == math.inf:
                    real = math.hypot(dxi, dyi)
            if real <= bound:
                out.append((i, real))
        return out

    def block_within(
        self, rect, packed: PackedRects, bound: float
    ) -> list[tuple[int, float]]:
        """``(index, distance)`` for packed rects within ``bound`` of ``rect``.

        Like :meth:`mindist_packed_within` but with the exact-distance
        rules applied full-width (the blocks the shared-memory engine
        evaluates are small, so the extra ``where`` passes are cheaper
        than the survivor re-check dance) — the distances are bitwise
        identical either way.
        """
        exact = exact_distances(*_gaps(rect, packed))
        idx = np.nonzero(exact <= bound)[0]
        return list(zip(idx.tolist(), exact[idx].tolist()))

    def cross_within(
        self, pr: PackedRects, ps: PackedRects, bound: float
    ) -> tuple[list[int], list[int], list[float], int, int]:
        """All cross pairs of two packed blocks within ``bound``.

        Returns ``(rows, cols, dists, in_x, in_y)``: the surviving pair
        coordinates and their exact minimum distances, plus the number
        of pairs whose clipped x-gap (resp. y-gap) alone is within the
        bound — the per-axis sweep-window sizes the caller charges to
        the cost model (the full matrix is uncharged overshoot
        arithmetic, like a sweep scan reading past its stop position).
        """
        dx = np.maximum(
            np.maximum(
                pr.xmin[:, None] - ps.xmax[None, :],
                ps.xmin[None, :] - pr.xmax[:, None],
            ),
            0.0,
        )
        dy = np.maximum(
            np.maximum(
                pr.ymin[:, None] - ps.ymax[None, :],
                ps.ymin[None, :] - pr.ymax[:, None],
            ),
            0.0,
        )
        in_x = int(np.count_nonzero(dx <= bound))
        in_y = int(np.count_nonzero(dy <= bound))
        exact = exact_distances(dx, dy)
        rows, cols = np.nonzero(exact <= bound)
        return (
            rows.tolist(),
            cols.tolist(),
            exact[rows, cols].tolist(),
            in_x,
            in_y,
        )
