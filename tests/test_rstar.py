"""Tests for R* insertion internals: split selection and the inserter."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry.rect import Rect
from repro.rtree.entries import Item
from repro.rtree.node import Node
from repro.rtree.rstar import RStarInserter, choose_split
from repro.rtree.tree import RTree

from tests.conftest import random_rects
from tests.test_pruning_bounds import written_tree


def entries_from(rects: list[Rect]) -> list[Item]:
    return [Item.object(r, i) for i, r in enumerate(rects)]


# ----------------------------------------------------------------------
# Brute-force ChooseSubtree: the oracle for the lazy leaf-parent rule
# ----------------------------------------------------------------------


def reference_overlap_enlargement(
    entries: list[Item], target: Item, rect: Rect
) -> float:
    """Overlap enlargement from the ``Rect`` methods, siblings in order."""
    enlarged = target.rect.union(rect)
    before = 0.0
    after = 0.0
    for other in entries:
        if other is target:
            continue
        before += target.rect.intersection_area(other.rect)
        after += enlarged.intersection_area(other.rect)
    return after - before


def reference_choose_subtree(self, node: Node, rect: Rect, target_level: int) -> Item:
    """R* ChooseSubtree scoring every entry (first minimum wins ties)."""
    entries = node.entries
    if node.level - 1 == 0 and target_level == 0:
        return min(
            entries,
            key=lambda e: (
                reference_overlap_enlargement(entries, e, rect),
                e.rect.enlargement(rect),
                e.rect.area(),
            ),
        )
    return min(entries, key=lambda e: (e.rect.enlargement(rect), e.rect.area()))


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def grid_rects() -> st.SearchStrategy[Rect]:
    """Rects on a coarse grid: duplicates, nesting and exact ties abound;
    a zero side gives zero-width or zero-height rects and points."""
    cell = st.integers(0, 12).map(float)
    side = st.integers(0, 4).map(float)
    return st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h), cell, cell, side, side)


def float_rects() -> st.SearchStrategy[Rect]:
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    side = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    return st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h), coord, coord, side, side)


@st.composite
def leaf_parent_nodes(draw) -> tuple[list[Item], Rect]:
    """2-102 entries (some exact duplicates) and a rect to insert."""
    rects = st.one_of(grid_rects(), float_rects())
    base = draw(st.lists(rects, min_size=1, max_size=60))
    duplicates = draw(st.lists(st.sampled_from(base), min_size=1, max_size=42))
    shuffled = draw(st.permutations(base + duplicates))
    new = draw(st.one_of(st.sampled_from(shuffled), rects))
    return [Item(r, i, 0) for i, r in enumerate(shuffled)], new


#: 35 entries whose enlargement to the origin sweeps across the last one,
#: which has the largest area enlargement but no overlap enlargement: the
#: R* paper's shortcut, scoring only the 32 least-enlargement entries,
#: would miss it.
BEYOND_32 = (
    [Item(Rect(-3.0, -0.1, -2.0, 0.1), i, 0) for i in range(35)]
    + [Item(Rect(-1.0, -1.0, -0.5, 1.0), 35, 0)],
    Rect.from_point(0.0, 0.0),
)


class TestLazyChooseSubtree:
    @settings(max_examples=150, deadline=None)
    @given(leaf_parent_nodes())
    @example(BEYOND_32)
    def test_matches_brute_force(self, case):
        entries, rect = case
        for entry in entries:
            got = RStarInserter._overlap_enlargement(entries, entry, rect)
            assert bits(got) == bits(reference_overlap_enlargement(entries, entry, rect))
        node = Node(page_id=0, level=1, entries=entries)
        chosen = RStarInserter(RTree())._choose_subtree(node, rect, 0)
        assert chosen is reference_choose_subtree(None, node, rect, 0)

    def test_builds_the_brute_force_tree(self, monkeypatch):
        def run() -> tuple[int, dict[int, tuple[int, list[Item]]]]:
            rng = random.Random(2024)
            tree = RTree(max_entries=8)
            live: dict[int, Rect] = {}
            for oid in range(2000):
                x, y = rng.randrange(200) * 0.5, rng.randrange(200) * 0.5
                kind = oid % 4
                if kind == 0:
                    rect = Rect.from_point(x, y)
                elif kind == 1:
                    rect = Rect(x, y, x + rng.randrange(1, 6), y)
                elif kind == 2 or not live:
                    rect = Rect(x, y, x + rng.randrange(1, 6), y + rng.randrange(1, 6))
                else:
                    rect = live[rng.choice(sorted(live))]
                tree.insert(rect, oid)
                live[oid] = rect
                if oid % 4 == 3:
                    gone = rng.choice(sorted(live))
                    assert tree.delete(live.pop(gone), gone)
            tree.validate()
            pages = {pid: tree.store.read(pid) for pid in tree.store.page_ids()}
            return tree.root_id, {
                pid: (node.level, list(node.entries)) for pid, node in pages.items()
            }

        calls = {"_split": 0, "_force_reinsert": 0, "insert_entry": 0}
        for name in calls:
            def counted(self, *args, _name=name, _real=getattr(RStarInserter, name)):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(RStarInserter, name, counted)
        lazy = run()
        assert calls["_split"] and calls["_force_reinsert"]
        # Every insert is one insert_entry; the rest are CondenseTree orphans.
        assert calls["insert_entry"] > 2000
        monkeypatch.setattr(RStarInserter, "_choose_subtree", reference_choose_subtree)
        assert run() == lazy

    def test_scores_only_the_entry_containing_the_rect(self, monkeypatch):
        tree = RTree(max_entries=8)
        tree.insert_all(random_rects(30, seed=9, max_side=0.0))
        root = tree.root
        assert root.level == 1 and len(root.entries) > 2
        target, point = next(
            (entry, center)
            for entry in root.entries
            if len(tree._get_node(entry.ref)) < tree.max_entries
            for center in [Rect.from_point(*entry.rect.center())]
            if [e for e in root.entries if e.rect.contains(center)] == [entry]
        )
        scored = []
        real = RStarInserter._overlap_enlargement

        def counted(entries, entry, rect):
            scored.append(entry)
            return real(entries, entry, rect)

        monkeypatch.setattr(RStarInserter, "_overlap_enlargement", staticmethod(counted))
        tree.insert(point, 999)
        assert scored == [target]
        tree.validate()


class TestChooseSplit:
    def test_underfull_rejected(self):
        entries = entries_from([Rect(0, 0, 1, 1)] * 3)
        with pytest.raises(ValueError):
            choose_split(entries, 2)

    def test_groups_partition_entries(self):
        rng = random.Random(0)
        rects = [
            Rect(x, y, x + 1, y + 1)
            for x, y in ((rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(11))
        ]
        entries = entries_from(rects)
        a, b = choose_split(entries, 4)
        assert len(a) + len(b) == 11
        assert {e.ref for e in a} | {e.ref for e in b} == set(range(11))
        assert len(a) >= 4 and len(b) >= 4

    def test_obvious_two_clusters_split_cleanly(self):
        left = [Rect(x, 0, x + 1, 1) for x in range(5)]
        right = [Rect(x + 100, 0, x + 101, 1) for x in range(6)]
        a, b = choose_split(entries_from(left + right), 4)
        bb_a = Rect.union_of(e.rect for e in a)
        bb_b = Rect.union_of(e.rect for e in b)
        assert bb_a.intersection_area(bb_b) == 0.0

    def test_vertical_clusters_pick_y_axis(self):
        bottom = [Rect(0, y, 1, y + 1) for y in range(5)]
        top = [Rect(0, y + 100, 1, y + 101) for y in range(6)]
        a, b = choose_split(entries_from(bottom + top), 4)
        ys = {e.rect.ymin < 50 for e in a}
        assert len(ys) == 1  # group a is purely one cluster

    def test_areas_that_overflow_still_split(self):
        # Sides near 1e156: every group area reads inf, so no score is
        # below (inf, inf); the split must still return legal groups.
        rects = [Rect(x * 1e156, 0.0, (x + 2) * 1e156, 1e156) for x in range(9)]
        assert Rect.union_of(rects).area() == math.inf
        a, b = choose_split(entries_from(rects), 4)
        assert sorted(e.ref for e in a + b) == list(range(9))
        assert len(a) >= 4 and len(b) >= 4
        tree = RTree(max_entries=8)
        tree.insert_all((rect, oid) for oid, rect in enumerate(rects * 3))
        tree.validate()


def tree_shape(tree: RTree, scale: float):
    """Each node's level and entries from the root down, coordinates / ``scale``."""

    def walk(node: Node):
        return node.level, [
            (
                (e.rect.xmin / scale, e.rect.ymin / scale,
                 e.rect.xmax / scale, e.rect.ymax / scale),
                e.level,
                e.ref if e.is_object else walk(tree._get_node(e.ref)),
            )
            for e in node.entries
        ]

    return walk(tree.root)


class TestAreasThatOverflow:
    def test_scaled_grid_builds_the_same_tree(self):
        # At 2**512 every nonzero area overflows, but scaling by a power
        # of two is exact: ChooseSubtree and the split must take the same
        # decisions as at scale 1, so inserts, deletes (CondenseTree) and
        # more inserts build the same tree.
        scale = 2.0 ** 512
        differ = []
        for seed in range(30):
            small, _ = written_tree(random.Random(seed), 1.0)
            huge, _ = written_tree(random.Random(seed), scale)
            assert huge.root.mbr().area() == math.inf
            if tree_shape(huge, scale) != tree_shape(small, 1.0):
                differ.append(seed)
        assert differ == []


class TestInsertion:
    def test_sequential_inserts_stay_valid(self):
        tree = RTree(max_entries=8)
        for rect, oid in random_rects(300, seed=5):
            tree.insert(rect, oid)
        tree.validate()
        assert tree.size == 300

    def test_root_split_grows_height(self):
        tree = RTree(max_entries=4)
        heights = set()
        for rect, oid in random_rects(100, seed=6):
            tree.insert(rect, oid)
            heights.add(tree.height)
        assert max(heights) >= 3
        tree.validate()

    def test_duplicate_rectangles(self):
        tree = RTree(max_entries=4)
        r = Rect(1, 1, 2, 2)
        for i in range(50):
            tree.insert(r, i)
        tree.validate()
        assert sorted(tree.search(r)) == list(range(50))

    def test_degenerate_points(self):
        tree = RTree(max_entries=4)
        for i in range(60):
            tree.insert(Rect.from_point(float(i % 7), float(i % 11)), i)
        tree.validate()
        assert tree.size == 60

    def test_collinear_input(self):
        tree = RTree(max_entries=5)
        for i in range(80):
            tree.insert(Rect(float(i), 0.0, float(i) + 0.5, 0.1), i)
        tree.validate()
        hits = tree.search(Rect(10.0, 0.0, 20.0, 1.0))
        # closed rectangles: item 20 touches the window's right edge
        assert sorted(hits) == list(range(10, 21))

    def test_sorted_adversarial_order(self):
        tree = RTree(max_entries=6)
        items = sorted(random_rects(200, seed=7), key=lambda it: it[0].xmin)
        for rect, oid in items:
            tree.insert(rect, oid)
        tree.validate()

    def test_search_agrees_with_brute_force(self):
        items = random_rects(250, seed=8)
        tree = RTree(max_entries=8)
        tree.insert_all(items)
        window = Rect(200, 200, 500, 500)
        expected = sorted(oid for rect, oid in items if rect.intersects(window))
        assert sorted(tree.search(window)) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(5, 60))
def test_random_insertion_always_valid(seed, count):
    tree = RTree(max_entries=4)
    items = random_rects(count, seed=seed, span=50.0, max_side=5.0)
    tree.insert_all(items)
    tree.validate()
    window = Rect(10, 10, 30, 30)
    expected = sorted(oid for rect, oid in items if rect.intersects(window))
    assert sorted(tree.search(window)) == expected
