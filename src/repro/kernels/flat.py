"""Flat-arena hot path for the sequential engines.

The shm workers evaluate kernels over zero-copy slices of a flat
struct-of-arrays tree image; the sequential engines sweep over the same
images instead of walking ``Item`` objects per expansion.
:class:`FlatHotPath` is built per join over a plain-buffer
:class:`~repro.kernels.arena.TreeArena` (views on each tree's memoized
image, so only a tree written since the last join is patched).  It
caches each node's sorted child order per (axis, direction), so a node
re-expanded against many partners sorts once, and hands HS its nodes'
entry blocks as zero-copy arena slices.  Image rows are page ids, so
``Item.ref`` is the node's row.  Each engine pops one queue head per
loop iteration; nothing here changes the pop order.

Exactness: the cached sort is a *stable* sort (NumPy's argsort, else
Python's ``sorted``) over the keys ``PlaneSweeper._sort_side`` computes
(entry coordinates round-trip the arena bit-for-bit, and IEEE negation
matches for backward sweeps), so ties break by original child index
exactly like its decorate-sort.  Every cache hit still charges the sort
CPU cost, so the simulated clock and all counters are path-invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernels.arena import TreeArena

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pairs import Item
    from repro.rtree.tree import RTree

try:  # NumPy is optional: without it sides sort in pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI leg
    _np = None

#: Bound on cached sorted sides; cleared wholesale when exceeded.  At
#: most ``4 * nodes`` entries exist, so ordinary joins never reach it.
_SIDE_CACHE_MAX = 1 << 18


class FlatHotPath:
    """Per-join cache of arena-backed sorted sides and entry blocks.

    A node item's page id (``Item.ref``) is its arena row.  A row is
    used only when it is in range and its entry count matches the
    caller's child count; a free row's empty range fails that check.
    """

    __slots__ = ("arena", "_view_r", "_view_s", "_sides", "_closed")

    def __init__(self, arena: TreeArena) -> None:
        self.arena = arena
        self._view_r = arena.view_r
        self._view_s = arena.view_s
        #: (side_r, ref, axis, forward) -> (sorted_items, keys)
        self._sides: dict[tuple, tuple] = {}
        self._closed = False

    @classmethod
    def build(cls, tree_r: "RTree", tree_s: "RTree") -> "FlatHotPath | None":
        """Arena + hot path for a join, or ``None`` for an empty dataset.

        Works with or without NumPy.  Empty datasets never expand a
        node, so they skip the image cost.
        """
        if tree_r.size == 0 or tree_s.size == 0:
            return None
        return cls(TreeArena(tree_r, tree_s, use_shm=False))

    def sorted_side(
        self, side_r: bool, item: "Item", children: list, axis: int, forward: bool
    ) -> tuple[list, list[float]] | None:
        """Sorted child list and sweep keys for one node side.

        Returns ``None`` when the item is not an arena node (object
        items never map; a stale child list is rejected by the count
        check) — the caller falls back to ``PlaneSweeper._sort_side``.
        The sorted list and keys are exactly that method's: same item
        objects, same stable tie order, same key floats.
        """
        if item.is_object:
            return None
        ref = item.ref
        key = (side_r, ref, axis, forward)
        cached = self._sides.get(key)
        if cached is not None:
            return cached
        row = self._row(side_r, ref, len(children))
        if row is None:
            return None
        view, lo, hi = row
        if forward:
            column = view.exmin if axis == 0 else view.eymin
        else:
            column = view.exmax if axis == 0 else view.eymax
        # A stable sort == decorate-sort on (key, index): ties keep the
        # original child order (entry order == child order), so the
        # sorted list is byte-identical to ``_sort_side``'s.
        if _np is not None:
            column = column[lo:hi] if forward else -column[lo:hi]
            order = _np.argsort(column, kind="stable")
            keys = column[order].tolist()
            order = order.tolist()
        else:
            column = column[lo:hi].tolist()
            if not forward:
                column = [-value for value in column]
            order = sorted(range(hi - lo), key=column.__getitem__)
            keys = [column[i] for i in order]
        entry = ([children[i] for i in order], keys)
        if len(self._sides) >= _SIDE_CACHE_MAX:
            self._sides.clear()
        self._sides[key] = entry
        return entry

    def entry_block(self, tag: object, n: int):
        """Zero-copy packed-rects view of one node's children, by tag.

        ``tag`` follows the HS convention ``(side_r, ref)``; anything
        else (or a count mismatch) returns ``None`` and the caller packs
        the old way.  The returned block is an arena slice —
        duck-compatible with ``PackedRects`` — so re-expanding a node
        against many partners allocates nothing at all.
        """
        if (
            not isinstance(tag, tuple)
            or len(tag) != 2
            or not isinstance(tag[0], bool)
        ):
            return None
        side_r, ref = tag
        row = self._row(side_r, ref, n)
        if row is None:
            return None
        view, lo, hi = row
        return view.entries.slice(lo, hi)

    def _row(self, side_r: bool, ref: int, n: int):
        """``(view, lo, hi)`` of page ``ref``'s row holding ``n`` entries.

        ``None`` when ``ref`` is out of the image's rows or the row's
        entry count differs (a free row, or a stale child list).
        """
        view = self._view_r if side_r else self._view_s
        if not 0 <= ref < view.layout.rows:
            return None
        lo = int(view.lo[ref])
        hi = int(view.hi[ref])
        if hi - lo != n:
            return None
        return view, lo, hi

    def close(self) -> None:
        """Release this join's side cache and arena views.  Idempotent.

        The per-tree images under the views stay memoized
        (:func:`~repro.kernels.arena.tree_image`) for the next join over
        the same tree versions; each frees with its tree.
        """
        if self._closed:
            return
        self._closed = True
        self._sides.clear()
        self._view_r = self._view_s = None
        self.arena.close()
