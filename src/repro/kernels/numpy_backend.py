"""NumPy kernels backend: vectorized sweep-window distance evaluation.

A node's sorted child list is *packed* into coordinate arrays
(struct-of-arrays) once per (node, axis, direction), gathered straight
out of the tree arena (:class:`repro.kernels.flat.FlatHotPath`); each
anchor's window — the contiguous slice of the other list within the
current axis cutoff — is then evaluated in one vectorized call instead
of one scalar ``min_distance`` per pair.

Bitwise contract: distances are ``sqrt(dx*dx + dy*dy)`` with the same
``dx == 0`` / ``dy == 0`` shortcuts as the scalar
:func:`repro.geometry.distances.min_distance`.  IEEE-754 basic
operations round identically in NumPy and CPython, so the two paths
agree bit for bit — the property the backend-equivalence tests pin.
"""

from __future__ import annotations

import numpy as np


class PackedItems:
    """Struct-of-arrays snapshot of one sorted child list and its keys."""

    __slots__ = ("keys", "xmin", "ymin", "xmax", "ymax")

    @classmethod
    def from_arrays(cls, keys, xmin, ymin, xmax, ymax) -> "PackedItems":
        """Adopt coordinate arrays gathered straight out of the tree arena."""
        packed = cls.__new__(cls)
        packed.keys = keys
        packed.xmin = xmin
        packed.ymin = ymin
        packed.xmax = xmax
        packed.ymax = ymax
        return packed


class PackedRects:
    """Struct-of-arrays snapshot of a bare rectangle list."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, rects) -> None:
        self.xmin = np.array([r.xmin for r in rects], dtype=np.float64)
        self.ymin = np.array([r.ymin for r in rects], dtype=np.float64)
        self.xmax = np.array([r.xmax for r in rects], dtype=np.float64)
        self.ymax = np.array([r.ymax for r in rects], dtype=np.float64)

    @classmethod
    def from_arrays(cls, xmin, ymin, xmax, ymax) -> "PackedRects":
        """Wrap existing coordinate arrays without copying.

        The shared-memory engine serializes whole trees into flat
        buffers once; node blocks are then *views* onto those buffers,
        so no per-expansion packing (or copying) ever happens.
        """
        packed = cls.__new__(cls)
        packed.xmin = xmin
        packed.ymin = ymin
        packed.xmax = xmax
        packed.ymax = ymax
        return packed

    def slice(self, lo: int, hi: int) -> "PackedRects":
        """A zero-copy view of rows ``[lo, hi)``."""
        return PackedRects.from_arrays(
            self.xmin[lo:hi], self.ymin[lo:hi], self.xmax[lo:hi], self.ymax[lo:hi]
        )

    def __len__(self) -> int:
        return len(self.xmin)


class NumpyKernels:
    """Vectorized implementation of the kernel API."""

    name = "numpy"
    batched = True
    #: Lists shorter than this are never packed: no window over them can
    #: reach ``min_window``, so packing would be pure overhead.
    min_pack = 32
    #: Windows narrower than this are evaluated by the scalar fallback.
    #: One ``window_mindist`` call costs roughly 15 scalar distances in
    #: dispatch overhead, and windows are planned with a cutoff that only
    #: tightens afterwards, so narrow windows frequently overshoot; an
    #: empirical sweep on the Figure-10 KDJ workload puts break-even
    #: near 32 pairs.
    min_window = 32

    def pack_rects(self, rects) -> PackedRects:
        """Pack a bare rect list for (repeated) ``mindist_packed`` calls."""
        return PackedRects(rects)

    def window_stop(self, packed: PackedItems, hi_key: float) -> int:
        """Index of the first item whose sweep key exceeds ``hi_key``."""
        return int(np.searchsorted(packed.keys, hi_key, side="right"))

    def window_mindist(
        self, packed: PackedItems, start: int, stop: int, rect
    ) -> list[float]:
        """Minimum distances from ``rect`` to items ``[start, stop)``."""
        dx = np.maximum(
            np.maximum(rect.xmin - packed.xmax[start:stop],
                       packed.xmin[start:stop] - rect.xmax),
            0.0,
        )
        dy = np.maximum(
            np.maximum(rect.ymin - packed.ymax[start:stop],
                       packed.ymin[start:stop] - rect.ymax),
            0.0,
        )
        d = np.sqrt(dx * dx + dy * dy)
        # tolist() hands plain Python floats downstream (queues serialize
        # results; np.float64 would not round-trip through json).
        return np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, d)).tolist()

    def mindist_packed(self, rect, packed: PackedRects) -> list[float]:
        """Minimum distances from ``rect`` to every packed rectangle."""
        dx = np.maximum(
            np.maximum(rect.xmin - packed.xmax, packed.xmin - rect.xmax), 0.0
        )
        dy = np.maximum(
            np.maximum(rect.ymin - packed.ymax, packed.ymin - rect.ymax), 0.0
        )
        d = np.sqrt(dx * dx + dy * dy)
        return np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, d)).tolist()

    def mindist_batch(self, rect, rects) -> list[float]:
        if len(rects) < self.min_window:
            from repro.geometry.distances import min_distance

            return [min_distance(rect, other) for other in rects]
        return self.mindist_packed(rect, PackedRects(rects))

    def mindist_packed_within(
        self, rect, packed: PackedRects, bound: float
    ) -> list[tuple[int, float]]:
        """``(index, distance)`` for every packed rect within ``bound``.

        Filtering before ``tolist`` is the point: with a tight bound only
        a handful of candidates survive, so only those get boxed into
        Python floats and walked by the caller.

        The axis-degenerate shortcuts (``dx == 0`` → ``dy`` and vice
        versa) are applied to the *survivors* in scalar code instead of
        as full-width ``where`` passes: the raw ``sqrt`` value is within
        one ulp of the shortcut value, so prefiltering on it with a
        relative slack yields a superset, and the exact bound is
        re-applied per survivor — the output is bitwise identical to the
        scalar backend's.
        """
        dx = np.maximum(
            np.maximum(rect.xmin - packed.xmax, packed.xmin - rect.xmax), 0.0
        )
        dy = np.maximum(
            np.maximum(rect.ymin - packed.ymax, packed.ymin - rect.ymax), 0.0
        )
        d = np.sqrt(dx * dx + dy * dy)
        if bound == np.inf:
            d = np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, d))
            return list(enumerate(d.tolist()))
        idx = np.nonzero(d <= bound * (1.0 + 1e-12))[0]
        hits = idx.tolist()
        if not hits:
            return []
        dxs = dx[idx].tolist()
        dys = dy[idx].tolist()
        ds = d[idx].tolist()
        out = []
        for j, i in enumerate(hits):
            dxi = dxs[j]
            dyi = dys[j]
            real = dyi if dxi == 0.0 else (dxi if dyi == 0.0 else ds[j])
            if real <= bound:
                out.append((i, real))
        return out

    def mindist_within(self, rect, rects, bound) -> list[tuple[int, float]]:
        if len(rects) < self.min_window:
            from repro.geometry.distances import min_distance

            out = []
            for i, other in enumerate(rects):
                real = min_distance(rect, other)
                if real <= bound:
                    out.append((i, real))
            return out
        return self.mindist_packed_within(rect, PackedRects(rects), bound)

    def block_within(
        self, rect, packed: PackedRects, bound: float
    ) -> list[tuple[int, float]]:
        """``(index, distance)`` for packed rects within ``bound`` of ``rect``.

        Like :meth:`mindist_packed_within` but with the degenerate-axis
        shortcuts applied full-width (the blocks the shared-memory
        engine evaluates are small, so two extra ``where`` passes are
        cheaper than the survivor re-check dance) — the distances are
        bitwise identical either way.
        """
        dx = np.maximum(
            np.maximum(rect.xmin - packed.xmax, packed.xmin - rect.xmax), 0.0
        )
        dy = np.maximum(
            np.maximum(rect.ymin - packed.ymax, packed.ymin - rect.ymax), 0.0
        )
        d = np.sqrt(dx * dx + dy * dy)
        exact = np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, d))
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
        arithmetic, like a sweep plan overshooting its stop position).
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
        d = np.sqrt(dx * dx + dy * dy)
        exact = np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, d))
        rows, cols = np.nonzero(exact <= bound)
        return (
            rows.tolist(),
            cols.tolist(),
            exact[rows, cols].tolist(),
            in_x,
            in_y,
        )

    def maxdist_batch(self, rect, rects) -> list[float]:
        if len(rects) < self.min_window:
            from repro.geometry.distances import max_distance

            return [max_distance(rect, other) for other in rects]
        xmin = np.array([r.xmin for r in rects], dtype=np.float64)
        ymin = np.array([r.ymin for r in rects], dtype=np.float64)
        xmax = np.array([r.xmax for r in rects], dtype=np.float64)
        ymax = np.array([r.ymax for r in rects], dtype=np.float64)
        dx = np.maximum(rect.xmax - xmin, xmax - rect.xmin)
        dy = np.maximum(rect.ymax - ymin, ymax - rect.ymin)
        return np.sqrt(dx * dx + dy * dy).tolist()
