"""HS's child-list scan: the children one partner can reach within a bound.

HS pairs the partner with *every* child of the node it expands (Section
2.2).  :meth:`~repro.core.stats.Instruments.mindist_within_items` counts
and charges all of those distances, as the paper's cost model requires,
but under a finite bound (HS-KDJ's qDmax) only the few children within
it matter, so only theirs are computed:

- :class:`ChildWindow` holds one child list sorted by the low edge along
  the longer axis of its MBR, with the running maximum of the high edges
  beside those keys.  :meth:`ChildWindow.within` bisects past the
  children whose high edges cannot reach the partner, scans forward
  until the low edges pass beyond it, and computes exact distances for
  that window only;
- :func:`scan_all` is the unbounded case (HS-IDJ, HS-KDJ before its k-th
  pair): every child's distance, in child order.

Both compute a distance with the arithmetic of the plane sweep's inlined
:func:`~repro.geometry.distances.min_distance`, so every distance they
return is bit for bit the scalar one, and they return the same
``(child index, distance)`` list, in child order, as a loop of
``min_distance`` over the whole list.  Nothing here depends on NumPy:
the scan is the same on both kernels backends.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate

_INF = math.inf

#: The smallest gap whose square is a normal float (2**-511, about
#: 1.49e-154).  :meth:`ChildWindow.within` cuts at no less than this; see
#: the proof there.
_CUT_FLOOR = 2.0**-511


class ChildWindow:
    """One child list, sorted for bounded scans against many partners."""

    __slots__ = ("_axis", "_keys", "_reach", "_order", "_rects")

    def __init__(self, rects) -> None:
        xmins = [r.xmin for r in rects]
        ymins = [r.ymin for r in rects]
        xmaxs = [r.xmax for r in rects]
        ymaxs = [r.ymax for r in rects]
        # Sort along the longer side of the list's MBR: the children
        # spread most along it, so a partner's window there is narrowest.
        axis = (
            1
            if rects and max(ymaxs) - min(ymins) > max(xmaxs) - min(xmins)
            else 0
        )
        lows, highs = (ymins, ymaxs) if axis else (xmins, xmaxs)
        order = sorted(range(len(lows)), key=lows.__getitem__)
        self._axis = axis
        self._keys = [lows[i] for i in order]
        self._reach = list(accumulate((highs[i] for i in order), max))
        # Child indices and rects in sorted order: four lists of
        # references, no per-child objects of their own.
        self._order = order
        self._rects = [rects[i] for i in order]

    def within(self, rect, bound: float) -> list[tuple[int, float]]:
        """``(child index, distance)`` for every child within ``bound`` of
        ``rect``, in child order: the children a ``min_distance`` loop
        would keep, with the same distances.

        Both cuts skip only children whose distance exceeds ``bound``.
        Let ``lo``/``hi`` be the partner's edges along the sort axis and
        ``cut = max(bound, 2**-511)``.  ``min_distance`` takes the gap
        along that axis as ``max(0, lo - c_hi, c_lo - hi)``, each term
        computed exactly as below, and its distance is never below a gap
        ``g > cut``: ``g**2`` is then a normal float, and in binary
        floating point ``sqrt(fl(g*g)) == g`` when ``g*g`` neither
        underflows nor overflows, so ``sqrt(fl(fl(g*g) + fl(h*h))) >= g``
        by monotone rounding; a sum that overflows takes ``math.hypot``,
        which is faithful and so ``>= g``; a zero other gap returns ``g``
        itself.  (Below ``2**-511`` a square can round down so far that
        the distance reads below the gap, hence the floor.)

        - *Left cut.*  ``reach[p]`` is the largest high edge among the
          first ``p + 1`` sorted children, so every child ``c`` there has
          ``lo - c_hi >= lo - reach[p]`` (subtraction rounds
          monotonically).  Where ``lo - reach[p] > cut`` all of them are
          out, and since ``reach`` never falls, the test holds on a
          prefix.  The bisection finds its end up to the rounding of
          ``lo - cut``; stepping back while the previous position fails
          the test leaves only cut positions before the start, and a
          start that lands early only scans a child more.
        - *Right cut.*  Keys ascend, so once ``c_lo - hi > cut`` it holds
          for every child after ``c``: the sweep's own stop test.

        Children inside the window are computed in full and kept only if
        ``distance <= bound``.
        """
        if self._axis:
            lo, hi = rect.ymin, rect.ymax
        else:
            lo, hi = rect.xmin, rect.xmax
        cut = bound if bound > _CUT_FLOOR else _CUT_FLOOR
        reach = self._reach
        start = bisect_left(reach, lo - cut)
        while start and lo - reach[start - 1] <= cut:
            start -= 1
        keys = self._keys
        rects = self._rects
        ax0, ay0, ax1, ay1 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        out = []
        for pos in range(start, len(keys)):
            if keys[pos] - hi > cut:
                break
            other = rects[pos]
            # ``min_distance`` inlined as ``PlaneSweeper._merge_sweep``
            # inlines it: same operations, same order, same bits.
            dx = ax0 - other.xmax
            gap = other.xmin - ax1
            if gap > dx:
                dx = gap
            dy = ay0 - other.ymax
            gap = other.ymin - ay1
            if gap > dy:
                dy = gap
            if dx <= 0.0:
                real = dy if dy > 0.0 else 0.0
            elif dy <= 0.0:
                real = dx
            else:
                real = math.sqrt(dx * dx + dy * dy) or max(dx, dy)
                if real == _INF:
                    real = math.hypot(dx, dy)
            if real <= bound:
                out.append((self._order[pos], real))
        if len(out) > 1:
            out.sort()
        return out


def scan_all(rect, rects) -> list[tuple[int, float]]:
    """``(child index, distance)`` for every rect of ``rects``, in order.

    The unbounded scan: one pass, ``min_distance`` inlined as in
    :meth:`ChildWindow.within`.
    """
    ax0, ay0, ax1, ay1 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
    sqrt = math.sqrt
    out = []
    for i, other in enumerate(rects):
        dx = ax0 - other.xmax
        gap = other.xmin - ax1
        if gap > dx:
            dx = gap
        dy = ay0 - other.ymax
        gap = other.ymin - ay1
        if gap > dy:
            dy = gap
        if dx <= 0.0:
            real = dy if dy > 0.0 else 0.0
        elif dy <= 0.0:
            real = dx
        else:
            real = sqrt(dx * dx + dy * dy) or max(dx, dy)
            if real == _INF:
                real = math.hypot(dx, dy)
        out.append((i, real))
    return out
