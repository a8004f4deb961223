"""R*-tree insertion: ChooseSubtree, split, forced reinsertion.

Implements the insertion algorithms of Beckmann, Kriegel, Schneider and
Seeger (SIGMOD 1990):

- **ChooseSubtree** descends by least overlap enlargement when the
  children are leaves, and by least area enlargement otherwise (ties
  broken by area enlargement, then area).  The overlap rule is applied
  lazily but exactly: entries are visited in (area enlargement, area,
  position) order, an entry's overlap enlargement is computed only when
  it is visited, a new best is kept only when strictly lower, and the
  scan stops at the first entry scoring 0.0.  For finite areas that is
  the entry the full scan picks, because overlap enlargement is never
  negative (the enlarged rectangle contains the old one, and float
  ``min``/``max``, ``-``, ``*`` and ``+`` are monotone) and is 0.0 for
  every entry that already contains the new rectangle.  The R* paper's
  "nearly minimum overlap" shortcut is not used: it can choose another
  subtree and so build another tree.  Every key is computed on plain
  floats with the operations of ``Rect.union``/``area``/``enlargement``
  in their order, so it is bit-identical to the method calls without a
  ``Rect`` per entry.
- **Node MBRs** are recomputed only where a write can move them.  A
  node's MBR is ``Rect.union_of`` of its entries in order, so each bound
  comes from the first entry that reaches it.  A rectangle strictly
  inside the node's entry on all four sides supplies no bound, and an
  entry it enlarges below gains only bounds strictly inside too, so
  every bound, zero signs included, stays where it was.  So the parent
  keeps its entry for a child when the new rectangle lies strictly
  inside it and no overflow (split or forced reinsert) happened at or
  below the child.  Deletion's CondenseTree uses the same rule
  (:mod:`repro.rtree.deletion`).
- **OverflowTreatment** performs one *forced reinsert* per level per data
  insertion (the 30% of entries whose centers lie farthest from the node
  center are removed and re-inserted, closest first), and splits
  otherwise.
- **Split** picks the split axis by minimum total margin over all legal
  distributions, then the distribution with minimum overlap (ties by
  minimum combined area).

The inserter is deliberately independent of :class:`repro.rtree.tree.RTree`
— it talks to a small duck-typed surface (``_get_node``, ``_alloc_node``,
``_grow_root``, ``root_id``, ``max_entries``, ``min_entries``) so it can
be unit tested against a trivial in-memory harness.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.geometry.rect import Rect
from repro.rtree.entries import OBJECT_LEVEL, Item
from repro.rtree.node import Node

#: Fraction of a node's entries removed by forced reinsertion (R* paper).
REINSERT_FRACTION = 0.3


class _TreeLike(Protocol):
    """The surface of RTree that the inserter needs."""

    root_id: int
    max_entries: int
    min_entries: int

    def _get_node(self, page_id: int) -> Node: ...

    def _alloc_node(self, level: int) -> Node: ...

    def _grow_root(self, first: Item, second: Item) -> None: ...


class RStarInserter:
    """Stateful executor for one or more data insertions into a tree."""

    def __init__(self, tree: _TreeLike) -> None:
        self._tree = tree
        self._reinserted_levels: set[int] = set()
        self._pending: list[Item] = []
        #: Overflow treatments so far; a change across a child's insertion
        #: means the child's MBR must be recomputed.
        self._overflows = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, ref: int) -> None:
        """Insert one data entry, running the full R* overflow protocol."""
        self.insert_entry(Item(rect, ref, OBJECT_LEVEL))

    def insert_entry(self, entry: Item) -> None:
        """Insert ``entry`` into a node one level above it (data objects
        into leaves, subtree entries into their old parents' level).

        Used both for ordinary data insertion and for reinserting the
        orphans produced by deletion's CondenseTree.
        """
        self._reinserted_levels.clear()
        self._pending.append(entry)
        while self._pending:
            pending = self._pending.pop(0)
            root = self._tree._get_node(self._tree.root_id)
            split = self._insert_rec(root, pending, None)
            if split is not None:
                self._tree._grow_root(root.item(), split)

    # ------------------------------------------------------------------
    # Recursive insertion
    # ------------------------------------------------------------------

    def _insert_rec(
        self, node: Node, entry: Item, node_rect: Rect | None
    ) -> Item | None:
        """Insert ``entry`` into the subtree at ``node``.

        ``node_rect`` is ``node``'s MBR as its parent's entry holds it
        (``None`` for the root, which no entry points at).  Returns the
        entry for a newly created sibling when ``node`` was split, else
        ``None``.  The caller is responsible for refreshing its directory
        entry for ``node`` (done below on the way up, only where the MBR
        can have moved: module docstring).
        """
        if node.level == entry.level + 1:
            node.add(entry)
        else:
            if node_rect is None:
                node_rect = node.mbr()
            child_entry = self._choose_child(node, entry, node_rect)
            child = self._tree._get_node(child_entry.ref)
            overflows = self._overflows
            split = self._insert_rec(child, entry, child_entry.rect)
            if overflows != self._overflows or not strictly_inside(
                entry.rect, child_entry.rect
            ):
                node.replace_entry(child.page_id, child.item())
            if split is not None:
                node.add(split)
        if len(node) > self._tree.max_entries:
            return self._overflow(node)
        return None

    def _choose_child(self, node: Node, entry: Item, node_rect: Rect) -> Item:
        """ChooseSubtree, on exactly scaled copies where areas could overflow.

        Every ChooseSubtree key is an area, or a sum of areas, inside
        ``node_rect`` enlarged by the new rectangle, so one test of that
        rectangle (:func:`_area_shift`) decides for the whole node.
        """
        rect, target_level = entry.rect, entry.level + 1
        shift = _area_shift(node_rect.union(rect), len(node.entries) + 1)
        if not shift:
            return self._choose_subtree(node, rect, target_level)
        scaled = Node(node.page_id, node.level, [
            Item(_scaled(child.rect, shift), i, child.level)
            for i, child in enumerate(node.entries)
        ])
        choice = self._choose_subtree(scaled, _scaled(rect, shift), target_level)
        return node.entries[choice.ref]

    def _choose_subtree(self, node: Node, rect: Rect, target_level: int) -> Item:
        """R* ChooseSubtree for descending one level toward ``target_level``."""
        entries = node.entries
        keys = _enlargement_keys(entries, rect)
        if node.level - 1 == 0 and target_level == 0:
            # Children are leaves: least overlap enlargement, then the key
            # above, then position -- scored lazily (module docstring).
            best = None
            best_overlap = math.inf
            for _, _, position in sorted(keys):
                entry = entries[position]
                overlap = self._overlap_enlargement(entries, entry, rect)
                if best is None or overlap < best_overlap:
                    best, best_overlap = entry, overlap
                    if overlap == 0.0:
                        break
            return best
        # The first entry with the least (area enlargement, area).
        return entries[min(keys)[2]]

    @staticmethod
    def _overlap_enlargement(entries: list[Item], target: Item, rect: Rect) -> float:
        """Increase in total overlap with siblings if ``target`` absorbs ``rect``.

        Bit-identical to ``after - before``, where ``after`` sums
        ``target.rect.union(rect).intersection_area(o)`` and ``before``
        sums ``target.rect.intersection_area(o)`` over the siblings ``o``
        in order: the same float operations on coordinates, each
        ``min(a, b)``/``max(a, b)`` written as the conditional that picks
        the same operand (``b`` only when strictly beyond ``a``).  A
        sibling the enlarged rectangle does not meet adds 0.0 to both
        sums, so it is skipped.
        """
        t = target.rect
        tx0, ty0, tx1, ty1 = t.xmin, t.ymin, t.xmax, t.ymax
        rx0, ry0, rx1, ry1 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        ex0, ey0 = rx0 if rx0 < tx0 else tx0, ry0 if ry0 < ty0 else ty0
        ex1, ey1 = rx1 if rx1 > tx1 else tx1, ry1 if ry1 > ty1 else ty1
        before = 0.0
        after = 0.0
        for other in entries:
            if other is target:
                continue
            o = other.rect
            ox0, ox1 = o.xmin, o.xmax
            w = (ox1 if ox1 < ex1 else ex1) - (ox0 if ox0 > ex0 else ex0)
            if w <= 0.0:
                continue
            oy0, oy1 = o.ymin, o.ymax
            h = (oy1 if oy1 < ey1 else ey1) - (oy0 if oy0 > ey0 else ey0)
            if h <= 0.0:
                continue
            after += w * h
            w = (ox1 if ox1 < tx1 else tx1) - (ox0 if ox0 > tx0 else tx0)
            if w > 0.0:
                h = (oy1 if oy1 < ty1 else ty1) - (oy0 if oy0 > ty0 else ty0)
                if h > 0.0:
                    before += w * h
        return after - before

    # ------------------------------------------------------------------
    # Overflow treatment
    # ------------------------------------------------------------------

    def _overflow(self, node: Node) -> Item | None:
        """Forced reinsert on the first overflow per level, split after."""
        self._overflows += 1
        is_root = node.page_id == self._tree.root_id
        if not is_root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._force_reinsert(node)
            return None
        return self._split(node)

    def _force_reinsert(self, node: Node) -> None:
        """Remove the 30% farthest entries and queue them for reinsertion."""
        count = max(int(round(REINSERT_FRACTION * self._tree.max_entries)), 1)
        cx, cy = node.mbr().center()

        def distance_from_center(entry: Item) -> float:
            ex, ey = entry.rect.center()
            return math.hypot(ex - cx, ey - cy)

        node.entries.sort(key=distance_from_center)
        removed = node.entries[-count:]
        del node.entries[-count:]
        # "Close reinsert": nearest removed entries first.
        self._pending.extend(removed)

    # ------------------------------------------------------------------
    # R* split
    # ------------------------------------------------------------------

    def _split(self, node: Node) -> Item:
        """Split an overflowing node; returns the new sibling's entry."""
        group_a, group_b = choose_split(
            node.entries, self._tree.min_entries
        )
        node.entries = group_a
        sibling = self._tree._alloc_node(node.level)
        sibling.entries = group_b
        return sibling.item()


def strictly_inside(inner: Rect, outer: Rect) -> bool:
    """True when ``inner`` lies strictly inside ``outer`` on all four sides.

    Such a rectangle supplies none of ``outer``'s bounds, and no tie (not
    even ``-0.0`` against ``0.0``) can make it one.
    """
    return (
        outer.xmin < inner.xmin
        and outer.ymin < inner.ymin
        and inner.xmax < outer.xmax
        and inner.ymax < outer.ymax
    )


def _enlargement_keys(
    entries: list[Item], rect: Rect
) -> list[tuple[float, float, int]]:
    """``(area enlargement, area, position)`` of each entry for ``rect``.

    Bit-identical to ``(e.rect.enlargement(rect), e.rect.area(), i)``:
    the float operations of ``Rect.union``, ``area`` and ``enlargement``
    in their order, each bound of the union the entry's unless ``rect``'s
    is strictly beyond it (as ``min``/``max`` with the entry first).
    """
    rx0, ry0, rx1, ry1 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
    keys = []
    for position, entry in enumerate(entries):
        r = entry.rect
        x0, y0, x1, y1 = r.xmin, r.ymin, r.xmax, r.ymax
        area = (x1 - x0) * (y1 - y0)
        enlarged = ((rx1 if rx1 > x1 else x1) - (rx0 if rx0 < x0 else x0)) * (
            (ry1 if ry1 > y1 else y1) - (ry0 if ry0 < y0 else y0)
        )
        keys.append((enlarged - area, area, position))
    return keys


def choose_split(
    entries: list[Item], min_entries: int
) -> tuple[list[Item], list[Item]]:
    """R* split of ``len(entries)`` (= M+1) entries into two groups.

    Exposed as a free function for direct unit testing.
    """
    if len(entries) < 2 * min_entries:
        raise ValueError(
            f"cannot split {len(entries)} entries with minimum fill {min_entries}"
        )
    best_axis = _choose_split_axis(entries, min_entries)
    return _choose_split_distribution(entries, min_entries, best_axis)


def _sorted_by(entries: list[Item], axis: int, by_upper: bool) -> list[Item]:
    if by_upper:
        return sorted(entries, key=lambda e: (e.rect.hi(axis), e.rect.lo(axis)))
    return sorted(entries, key=lambda e: (e.rect.lo(axis), e.rect.hi(axis)))


def _prefix_suffix_unions(entries: list[Item]) -> tuple[list[Rect], list[Rect]]:
    """Running bounding boxes from the left and from the right."""
    n = len(entries)
    prefix: list[Rect] = [entries[0].rect] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1].union(entries[i].rect)
    suffix: list[Rect] = [entries[-1].rect] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1].union(entries[i].rect)
    return prefix, suffix


def _distributions(n: int, m: int) -> range:
    """Legal sizes of the first group: ``m .. n - m``."""
    return range(m, n - m + 1)


def _choose_split_axis(entries: list[Item], m: int) -> int:
    """Axis whose distributions have the smallest total margin."""
    best_axis = 0
    best_margin = math.inf
    for axis in (0, 1):
        margin_sum = 0.0
        for by_upper in (False, True):
            ordered = _sorted_by(entries, axis, by_upper)
            prefix, suffix = _prefix_suffix_unions(ordered)
            for k in _distributions(len(entries), m):
                margin_sum += prefix[k - 1].margin() + suffix[k].margin()
        if margin_sum < best_margin:
            best_margin = margin_sum
            best_axis = axis
    return best_axis


def _choose_split_distribution(
    entries: list[Item], m: int, axis: int
) -> tuple[list[Item], list[Item]]:
    """Minimum-overlap (then minimum-area) distribution along ``axis``.

    Each score is an area, or a sum of two, inside the MBR of all
    entries; when those could overflow (one test of that MBR's area, see
    :func:`_area_shift`) the scores are computed on exactly scaled
    group MBRs instead.  The first distribution stands until a lower
    score beats it.
    """
    best: tuple[float, float] | None = None
    shift = None
    for by_upper in (False, True):
        ordered = _sorted_by(entries, axis, by_upper)
        prefix, suffix = _prefix_suffix_unions(ordered)
        if shift is None:
            shift = _area_shift(prefix[-1], 2)
        for k in _distributions(len(entries), m):
            bb1, bb2 = prefix[k - 1], suffix[k]
            if shift:
                bb1, bb2 = _scaled(bb1, shift), _scaled(bb2, shift)
            score = (bb1.intersection_area(bb2), bb1.area() + bb2.area())
            if best is None or score < best:
                best = score
                best_groups = (ordered[:k], ordered[k:])
    return best_groups


def _area_shift(bounds: Rect, terms: int) -> int:
    """Exponent ``e`` such that areas are safe on coordinates times ``2**-e``.

    0 while ``terms`` areas of ``bounds`` add up to a finite number: then
    no key inside ``bounds`` overflows and nothing is scaled, so ordinary
    trees are built bit for bit as without this test.  Past that (sides
    beyond about 1.3e154) it is the largest binary exponent of the
    coordinates, which brings every coordinate inside ``bounds`` below 1
    in magnitude.  Scaling by a power of two is exact, so the scaled keys
    order the entries as unscaled keys would if they did not overflow.
    """
    if bounds.area() * terms < math.inf:
        return 0
    return max(
        math.frexp(coord)[1]
        for coord in (bounds.xmin, bounds.ymin, bounds.xmax, bounds.ymax)
    )


def _scaled(rect: Rect, shift: int) -> Rect:
    """``rect`` with every coordinate times ``2**-shift`` (exact)."""
    return Rect(
        math.ldexp(rect.xmin, -shift),
        math.ldexp(rect.ymin, -shift),
        math.ldexp(rect.xmax, -shift),
        math.ldexp(rect.ymax, -shift),
    )
