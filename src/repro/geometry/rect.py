"""Axis-aligned rectangles (minimum bounding rectangles).

``Rect`` is the single geometric currency of the library: data objects,
R-tree directory entries and query windows are all rectangles.  A point is
represented as a degenerate rectangle whose low and high corners coincide.

Rectangles are immutable; operations return new rectangles.  All
coordinates are plain floats — the library is deliberately dependency-free
in its core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

_INF = math.inf


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate rectangles (zero width and/or height) are valid and are used
    to represent points.  Construction validates that the rectangle is not
    inverted and that every coordinate is finite (no NaN, no infinity).
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        # Written so that a NaN coordinate, which fails every comparison,
        # is rejected too: a NaN rectangle would sit in a tree unfindable.
        # An infinite one would read inf gaps, and inf - inf is NaN.
        if not (
            -_INF < self.xmin <= self.xmax < _INF
            and -_INF < self.ymin <= self.ymax < _INF
        ):
            raise ValueError(
                f"inverted, infinite or NaN rectangle: ({self.xmin}, "
                f"{self.ymin}, {self.xmax}, {self.ymax})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_point(cls, x: float, y: float) -> "Rect":
        """Build a degenerate rectangle representing the point ``(x, y)``."""
        return cls(x, y, x, y)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Return the minimum bounding rectangle of a non-empty iterable."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_of requires at least one rectangle") from None
        xmin, ymin, xmax, ymax = first.xmin, first.ymin, first.xmax, first.ymax
        for r in it:
            if r.xmin < xmin:
                xmin = r.xmin
            if r.ymin < ymin:
                ymin = r.ymin
            if r.xmax > xmax:
                xmax = r.xmax
            if r.ymax > ymax:
                ymax = r.ymax
        return cls(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def is_point(self) -> bool:
        return self.xmin == self.xmax and self.ymin == self.ymax

    def area(self) -> float:
        """Area of the rectangle (zero for degenerate rectangles)."""
        return self.width * self.height

    def margin(self) -> float:
        """Half-perimeter, the R*-tree split quality measure."""
        return self.width + self.height

    def center(self) -> tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def side(self, axis: int) -> float:
        """Side length along ``axis`` (0 = x, 1 = y)."""
        return self.width if axis == 0 else self.height

    def lo(self, axis: int) -> float:
        """Lower coordinate along ``axis``."""
        return self.xmin if axis == 0 else self.ymin

    def hi(self, axis: int) -> float:
        """Upper coordinate along ``axis``."""
        return self.xmax if axis == 0 else self.ymax

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    # ------------------------------------------------------------------
    # Combinations
    # ------------------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of the two rectangles."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def intersection_area(self, other: "Rect") -> float:
        """Area of overlap; zero when disjoint."""
        w = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        if w <= 0.0:
            return 0.0
        h = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if h <= 0.0:
            return 0.0
        return w * h

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for this rectangle to cover ``other``."""
        return self.union(other).area() - self.area()

    def expanded(self, delta: float) -> "Rect":
        """Rectangle grown by ``delta`` on every side (``delta >= 0``)."""
        if delta < 0:
            raise ValueError("delta must be non-negative")
        return Rect(
            self.xmin - delta, self.ymin - delta, self.xmax + delta, self.ymax + delta
        )

    # ------------------------------------------------------------------
    # Distances (duplicated from repro.geometry.distances for convenience;
    # the free functions are the canonical, instrumentable entry points)
    # ------------------------------------------------------------------

    def min_dist(self, other: "Rect") -> float:
        """Minimum Euclidean distance between the two closed rectangles.

        Uses the naive ``sqrt(dx*dx + dy*dy)`` form in lockstep with
        :func:`repro.geometry.distances.min_distance` and the batched
        kernels, bit for bit.
        """
        dx = max(0.0, self.xmin - other.xmax, other.xmin - self.xmax)
        dy = max(0.0, self.ymin - other.ymax, other.ymin - self.ymax)
        if dx == 0.0:
            return dy
        if dy == 0.0:
            return dx
        # Both gaps > 0: apart, even when the squares underflow to 0.0;
        # squares that overflow read inf and take the scaled hypot.
        d = math.sqrt(dx * dx + dy * dy)
        if d == _INF:
            return math.hypot(dx, dy)
        return d or max(dx, dy)

    def max_dist(self, other: "Rect") -> float:
        """Maximum Euclidean distance between points of the rectangles."""
        dx = max(self.xmax - other.xmin, other.xmax - self.xmin)
        dy = max(self.ymax - other.ymin, other.ymax - self.ymin)
        d = math.sqrt(dx * dx + dy * dy)
        return math.hypot(dx, dy) if d == _INF else d

    def axis_dist(self, other: "Rect", axis: int) -> float:
        """Separation of the projections on ``axis``; zero when they overlap."""
        if axis == 0:
            return max(0.0, self.xmin - other.xmax, other.xmin - self.xmax)
        return max(0.0, self.ymin - other.ymax, other.ymin - self.ymax)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def __iter__(self) -> Iterator[float]:
        yield self.xmin
        yield self.ymin
        yield self.xmax
        yield self.ymax
