"""Flat-arena hot path for the sequential engines.

The shm workers evaluate kernels over zero-copy slices of a flat
struct-of-arrays tree image; the sequential engines sweep over the same
images instead of walking ``Item`` objects per expansion:

- :class:`FlatHotPath` — built per join over a plain-buffer
  :class:`~repro.kernels.arena.TreeArena` (views on each tree's
  memoized image, so only a tree written since the last join is
  patched), it caches each node's sorted child order per (axis,
  direction), so a node re-expanded against many partners sorts once.
  For a batched backend it also gathers the packed coordinate arrays
  straight out of the arena (one fancy-index per array).  Image rows
  are page ids, so ``Item.ref`` is the node's row;
- :class:`BatchController` — the adaptive bulk-pop width policy: stay at
  width 1 while the pruning cutoff is still moving between batches (so
  the run is exactly the unbatched run while bookkeeping is volatile),
  double up to :data:`MAX_BATCH` once it holds still;
- :func:`resolve_batch_size` — config/env resolution for the
  ``batch_size`` knob (``0`` = adaptive).

Exactness: the cached sort is a *stable* sort (NumPy's argsort, else
Python's ``sorted``) over the keys ``PlaneSweeper._sort_side`` computes
(entry coordinates round-trip the arena bit-for-bit, and IEEE negation
matches for backward sweeps), so ties break by original child index
exactly like its decorate-sort.  Every cache hit still charges the sort
CPU cost, so the simulated clock and all counters are path-invariant.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.kernels.arena import TreeArena

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pairs import Item
    from repro.rtree.tree import RTree

try:  # NumPy is optional: without it sides sort in pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI leg
    _np = None

#: Upper bound of the adaptive bulk-pop width.  Past ~64 heads the heap
#: savings flatten out while cutoff staleness risk (a batch ends early,
#: wasted drain work) grows; fixed widths may exceed this.
MAX_BATCH = 64

#: Bound on cached sorted sides; cleared wholesale when exceeded.  At
#: most ``4 * nodes`` entries exist, so ordinary joins never reach it.
_SIDE_CACHE_MAX = 1 << 18


def resolve_batch_size(value: int | None) -> int:
    """Resolve the ``batch_size`` knob: explicit > env > adaptive.

    ``None`` defers to the ``REPRO_BATCH`` environment variable (the CI
    matrix forces widths that way), then to ``0`` — the adaptive policy.
    ``1`` is the pure single-pop path; negatives clamp to adaptive.
    """
    if value is None:
        raw = os.environ.get("REPRO_BATCH", "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                value = 0
    if value is None or value < 0:
        return 0
    return value


class BatchController:
    """Bulk-pop width policy, sampled once per outer loop iteration.

    With a fixed ``batch_size`` the width is constant.  In adaptive mode
    (``0``) the controller compares the engine's pruning-cutoff sample
    against the previous iteration's: a change collapses the width to 1
    (while qDmax/eDmax move fast, single pops keep every expansion's
    bookkeeping maximally fresh), a repeat doubles it up to
    :data:`MAX_BATCH` (a converged cutoff makes wide drains provably
    safe and the per-pop overhead dominant).
    """

    __slots__ = ("_fixed", "_width", "_last")

    def __init__(self, batch_size: int) -> None:
        self._fixed = batch_size if batch_size > 0 else 0
        self._width = 1
        self._last: object = None

    def width(self, cutoff_sample: object) -> int:
        if self._fixed:
            return self._fixed
        if cutoff_sample != self._last:
            self._last = cutoff_sample
            self._width = 1
        elif self._width < MAX_BATCH:
            self._width *= 2
        return self._width


def _unpickled_flat_pack() -> None:
    """Stand-in for a :class:`_FlatPack` crossing a pickle boundary."""
    return None


class _FlatPack:
    """Packed coordinate arrays for one cached sorted side, gathered lazily.

    ``get()`` memoizes a :class:`~repro.kernels.numpy_backend.PackedItems`
    (``None`` below the backend's ``min_pack``), shared by every
    expansion that hits the cache entry.  Rides in ExpansionRecords;
    pickling sheds it (checkpoints must not carry process-local arrays),
    unpickling as ``None`` so window evaluation falls back to the
    bit-identical scalar path.
    """

    __slots__ = ("_view", "_lo", "_hi", "_order", "_keys", "_min_pack",
                 "_packed", "_done")

    def __init__(self, view, lo, hi, order, keys, min_pack) -> None:
        self._view = view
        self._lo = lo
        self._hi = hi
        self._order = order
        self._keys = keys
        self._min_pack = min_pack
        self._packed = None
        self._done = False

    def get(self):
        if not self._done:
            self._done = True
            lo, hi = self._lo, self._hi
            if hi - lo >= self._min_pack:
                from repro.kernels.numpy_backend import PackedItems

                view = self._view
                order = self._order
                self._packed = PackedItems.from_arrays(
                    self._keys,
                    view.exmin[lo:hi][order],
                    view.eymin[lo:hi][order],
                    view.exmax[lo:hi][order],
                    view.eymax[lo:hi][order],
                )
        return self._packed

    def __reduce__(self):
        return (_unpickled_flat_pack, ())


class FlatHotPath:
    """Per-join cache of arena-backed sorted sides and entry blocks.

    A node item's page id (``Item.ref``) is its arena row.  A row is
    used only when it is in range and its entry count matches the
    caller's child count; a free row's empty range fails that check.
    """

    __slots__ = ("arena", "_kernels", "_view_r", "_view_s", "_sides", "_closed")

    def __init__(self, arena: TreeArena, kernels) -> None:
        self.arena = arena
        self._kernels = kernels
        self._view_r = arena.view_r
        self._view_s = arena.view_s
        #: (side_r, ref, axis, forward) -> (sorted_items, keys, pack)
        self._sides: dict[tuple, tuple] = {}
        self._closed = False

    @classmethod
    def build(cls, tree_r: "RTree", tree_s: "RTree", kernels) -> "FlatHotPath | None":
        """Arena + hot path for a join, or ``None`` for an empty dataset.

        Serves every backend, with or without NumPy.  Empty datasets
        never expand a node, so they skip the image cost.
        """
        if tree_r.size == 0 or tree_s.size == 0:
            return None
        return cls(TreeArena(tree_r, tree_s, use_shm=False), kernels)

    def sorted_side(
        self, side_r: bool, item: "Item", children: list, axis: int, forward: bool
    ) -> tuple[list, list[float], object] | None:
        """Sorted child list, sweep keys and pack for one node side.

        Returns ``None`` when the item is not an arena node (object
        items never map; a stale child list is rejected by the count
        check) — the caller falls back to ``PlaneSweeper._sort_side``.
        The sorted list and keys are exactly that method's: same item
        objects, same stable tie order, same key floats.  The pack is a
        :class:`_FlatPack` for a batched backend, else ``None``.
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
            pack_order, pack_keys = order, column[order]
            order, keys = order.tolist(), pack_keys.tolist()
        else:
            column = column[lo:hi].tolist()
            if not forward:
                column = [-value for value in column]
            order = sorted(range(hi - lo), key=column.__getitem__)
            keys = [column[i] for i in order]
            pack_order, pack_keys = order, keys
        pack = None
        if self._kernels.batched:
            pack = _FlatPack(
                view, lo, hi, pack_order, pack_keys, self._kernels.min_pack
            )
        entry = ([children[i] for i in order], keys, pack)
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
