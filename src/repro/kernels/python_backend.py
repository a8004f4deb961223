"""Pure-Python kernels backend.

The fallback when NumPy is unavailable (or ``REPRO_KERNELS=python``).
There is nothing to vectorize with, so the backend is not ``batched``:
the sweep gets no packs and keeps its scalar per-pair path, and the
batch entry points are plain comprehensions over the scalar distance
functions, which makes backend equivalence true by construction.
"""

from __future__ import annotations

import math

from repro.geometry.distances import max_distance, min_distance


class PythonKernels:
    """Scalar reference implementation of the kernel API."""

    name = "python"
    #: Whether sweeps get packed windows to evaluate in one call.  False
    #: here: sweeps run their scalar path per pair.
    batched = False
    #: Smallest window worth batching (unused — kept for API parity).
    min_window = 0

    def mindist_batch(self, rect, rects) -> list[float]:
        return [min_distance(rect, other) for other in rects]

    def pack_rects(self, rects):
        """No packing: the scalar path iterates the list as-is."""
        return rects

    def mindist_packed(self, rect, packed) -> list[float]:
        return [min_distance(rect, other) for other in packed]

    def mindist_within(self, rect, rects, bound) -> list[tuple[int, float]]:
        """``(index, distance)`` for every rect within ``bound``."""
        out = []
        for i, other in enumerate(rects):
            real = min_distance(rect, other)
            if real <= bound:
                out.append((i, real))
        return out

    def mindist_packed_within(self, rect, packed, bound) -> list[tuple[int, float]]:
        return self.mindist_within(rect, packed, bound)

    def block_within(self, rect, block, bound) -> list[tuple[int, float]]:
        """``(index, distance)`` for block rects within ``bound`` of ``rect``.

        ``block`` is a struct-of-arrays coordinate block (the
        shared-memory engine's zero-copy slices expose indexable
        ``xmin``/``ymin``/``xmax``/``ymax`` sequences); the arithmetic
        mirrors the scalar ``min_distance`` exactly, so the distances
        are bitwise identical to the NumPy backend's.
        """
        rxmin, rymin, rxmax, rymax = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        bxmin, bymin, bxmax, bymax = block.xmin, block.ymin, block.xmax, block.ymax
        out = []
        for i in range(len(bxmin)):
            dx = max(rxmin - bxmax[i], bxmin[i] - rxmax, 0.0)
            dy = max(rymin - bymax[i], bymin[i] - rymax, 0.0)
            if dx > bound or dy > bound:
                continue
            real = dy if dx == 0.0 else (dx if dy == 0.0 else math.sqrt(dx * dx + dy * dy))
            if real <= bound:
                out.append((i, float(real)))
        return out

    def cross_within(
        self, pr, ps, bound
    ) -> tuple[list[int], list[int], list[float], int, int]:
        """All cross pairs of two coordinate blocks within ``bound``.

        Same contract as the NumPy backend's ``cross_within``: the pair
        lists carry exact (bitwise-matching) minimum distances, and
        ``in_x``/``in_y`` count the pairs within the bound along each
        single axis — the sweep-window sizes the caller charges.
        """
        rows: list[int] = []
        cols: list[int] = []
        dists: list[float] = []
        in_x = 0
        in_y = 0
        axmin, aymin, axmax, aymax = pr.xmin, pr.ymin, pr.xmax, pr.ymax
        bxmin, bymin, bxmax, bymax = ps.xmin, ps.ymin, ps.xmax, ps.ymax
        nb = len(bxmin)
        for i in range(len(axmin)):
            rxmin = axmin[i]
            rymin = aymin[i]
            rxmax = axmax[i]
            rymax = aymax[i]
            for j in range(nb):
                dx = max(rxmin - bxmax[j], bxmin[j] - rxmax, 0.0)
                dy = max(rymin - bymax[j], bymin[j] - rymax, 0.0)
                x_ok = dx <= bound
                y_ok = dy <= bound
                if x_ok:
                    in_x += 1
                if y_ok:
                    in_y += 1
                if not (x_ok and y_ok):
                    continue
                real = (
                    dy if dx == 0.0 else (dx if dy == 0.0 else math.sqrt(dx * dx + dy * dy))
                )
                if real <= bound:
                    rows.append(i)
                    cols.append(j)
                    dists.append(float(real))
        return rows, cols, dists, in_x, in_y

    def maxdist_batch(self, rect, rects) -> list[float]:
        return [max_distance(rect, other) for other in rects]
