"""Pure-Python kernels backend.

The fallback when NumPy is not importable: the parallel engine's block
calls, written with the arithmetic of the scalar ``min_distance`` (its
clip that puts ``0.0`` first, its zero-gap shortcuts, its underflow
fallback and its ``math.hypot`` where the squares overflow) so that the
distances match the NumPy backend's bit for bit.  HS's child-list scan
is scalar on both backends (:mod:`repro.kernels.window`).
"""

from __future__ import annotations

import math

_INF = math.inf


class PythonKernels:
    """Scalar implementation of the parallel engine's block calls."""

    name = "python"

    def block_within(self, rect, block, bound) -> list[tuple[int, float]]:
        """``(index, distance)`` for block rects within ``bound`` of ``rect``.

        ``block`` is a struct-of-arrays coordinate block (a node
        block's ``rects``: ``xmin``/``ymin``/``xmax``/``ymax`` NumPy
        arrays where NumPy imports, else float tuples);
        :func:`_columns` reads them as floats.
        """
        rxmin, rymin, rxmax, rymax = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        bxmin, bymin, bxmax, bymax = _columns(block)
        out = []
        for i in range(len(bxmin)):
            dx = max(0.0, rxmin - bxmax[i], bxmin[i] - rxmax)
            dy = max(0.0, rymin - bymax[i], bymin[i] - rymax)
            if dx > bound or dy > bound:
                continue
            real = (
                dy if dx == 0.0
                else dx if dy == 0.0
                else math.sqrt(dx * dx + dy * dy) or max(dx, dy)
            )
            if real == _INF:
                real = math.hypot(dx, dy)
            if real <= bound:
                out.append((i, real))
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
        axmin, aymin, axmax, aymax = _columns(pr)
        bxmin, bymin, bxmax, bymax = _columns(ps)
        nb = len(bxmin)
        for i in range(len(axmin)):
            rxmin = axmin[i]
            rymin = aymin[i]
            rxmax = axmax[i]
            rymax = aymax[i]
            for j in range(nb):
                dx = max(0.0, rxmin - bxmax[j], bxmin[j] - rxmax)
                dy = max(0.0, rymin - bymax[j], bymin[j] - rymax)
                x_ok = dx <= bound
                y_ok = dy <= bound
                if x_ok:
                    in_x += 1
                if y_ok:
                    in_y += 1
                if not (x_ok and y_ok):
                    continue
                real = (
                    dy if dx == 0.0
                    else dx if dy == 0.0
                    else math.sqrt(dx * dx + dy * dy) or max(dx, dy)
                )
                if real == _INF:
                    real = math.hypot(dx, dy)
                if real <= bound:
                    rows.append(i)
                    cols.append(j)
                    dists.append(real)
        return rows, cols, dists, in_x, in_y


def _columns(block) -> tuple:
    """A block's four coordinate columns, read as Python floats.

    NumPy arrays have ``tolist`` (plain sequences pass through): plain
    floats index fast and, unlike NumPy scalars, square past 1.3e154 to
    ``inf`` without a warning.
    """
    return tuple(
        column.tolist() if hasattr(column, "tolist") else column
        for column in (block.xmin, block.ymin, block.xmax, block.ymax)
    )
