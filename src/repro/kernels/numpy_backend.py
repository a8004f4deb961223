"""NumPy kernels backend: distances over whole node blocks in one call.

The parallel engine crosses the node blocks of
:mod:`repro.kernels.arena` (:meth:`NumpyKernels.block_within`,
:meth:`NumpyKernels.cross_within`), whose coordinates are packed as
:class:`PackedRects` once per tree version, and the ``nlj`` oracle scans
its matrix with :func:`exact_distances`.  HS's child-list scan is scalar
on both backends (:mod:`repro.kernels.window`).

Bitwise contract: distances are ``sqrt(dx*dx + dy*dy)`` with the same
``dx == 0`` / ``dy == 0`` shortcuts, the same ``max(dx, dy)`` fallback
when both squares underflow, and the same ``math.hypot`` where they
overflow, as the scalar :func:`repro.geometry.distances.min_distance`.
IEEE-754 basic operations round identically in NumPy and CPython, so
the two paths agree bit for bit — the property the backend-equivalence
tests pin.  A zero gap reads +0.0 here as in the scalar code:
``np.maximum`` returns its second operand on a tie, so the final clip
against ``0.0`` never keeps a ``-0.0`` gap.
"""

from __future__ import annotations

import math

import numpy as np


class PackedRects:
    """Struct-of-arrays snapshot of a rectangle list: four read-only
    float64 columns, the rows of one array."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin, ymin, xmax, ymax) -> None:
        coords = np.array((xmin, ymin, xmax, ymax), dtype=np.float64)
        coords.flags.writeable = False
        self.xmin, self.ymin, self.xmax, self.ymax = coords

    def __len__(self) -> int:
        return len(self.xmin)


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
    """Vectorized implementation of the parallel engine's block calls."""

    name = "numpy"

    def block_within(
        self, rect, packed: PackedRects, bound: float
    ) -> list[tuple[int, float]]:
        """``(index, distance)`` for packed rects within ``bound`` of ``rect``.

        The exact-distance rules are applied full-width: the blocks the
        parallel engine evaluates are small, so the extra ``where``
        passes cost less than re-checking survivors in scalar code.
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
