"""Distance functions between rectangles.

These free functions are the canonical entry points the join engines call,
so that instrumentation (counting "real" versus "axis" distance
computations, the paper's primary CPU metric) can wrap a single choke
point.  They mirror the methods on :class:`repro.geometry.Rect`.
"""

from __future__ import annotations

import math

from repro.geometry.rect import Rect

_INF = math.inf


def min_distance(a: Rect, b: Rect) -> float:
    """Minimum Euclidean distance between two closed rectangles.

    This is the paper's ``dist(r, s)``: zero when the rectangles intersect,
    otherwise the distance between the closest pair of boundary points.
    For two degenerate (point) rectangles it is the ordinary point
    distance, so object pairs and node pairs share one definition.

    The hypotenuse is computed as ``sqrt(dx*dx + dy*dy)`` rather than
    ``math.hypot``: the batched kernels (:mod:`repro.kernels`) must
    produce bit-identical distances from NumPy, and ``np.hypot`` rounds
    differently from ``math.hypot`` while the naive form agrees exactly.
    When both gaps are positive but their squares underflow (gaps below
    about 1e-162) the sum reads 0.0; the rectangles do not touch, so the
    larger gap stands in, as in :meth:`Rect.min_dist`.  When the squares
    overflow (gaps above about 1.3e154) the root reads ``inf``, and the
    scaled ``math.hypot`` gives the distance instead.
    """
    dx = max(a.xmin - b.xmax, b.xmin - a.xmax, 0.0)
    dy = max(a.ymin - b.ymax, b.ymin - a.ymax, 0.0)
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    d = math.sqrt(dx * dx + dy * dy)
    if d == _INF:
        return math.hypot(dx, dy)
    return d or max(dx, dy)


def max_distance(a: Rect, b: Rect) -> float:
    """Maximum Euclidean distance between points of two rectangles.

    Used when non-object pairs are (optionally) inserted into the distance
    queue: the k-th smallest *max* distance is a safe upper bound on the
    cutoff (see the paper's footnote 1).
    """
    dx = max(a.xmax - b.xmin, b.xmax - a.xmin)
    dy = max(a.ymax - b.ymin, b.ymax - a.ymin)
    # Naive sqrt form, matching min_distance (hypot where it overflows).
    d = math.sqrt(dx * dx + dy * dy)
    return math.hypot(dx, dy) if d == _INF else d


def axis_distance(a: Rect, b: Rect, axis: int) -> float:
    """Distance between the projections of the rectangles on ``axis``.

    Always a lower bound on :func:`min_distance`, which is what makes it a
    sound plane-sweep pruning test (Algorithm 1, line 16).
    """
    if axis == 0:
        return max(a.xmin - b.xmax, b.xmin - a.xmax, 0.0)
    return max(a.ymin - b.ymax, b.ymin - a.ymax, 0.0)


def point_distance(x1: float, y1: float, x2: float, y2: float) -> float:
    """Euclidean distance between two points."""
    return math.hypot(x2 - x1, y2 - y1)
