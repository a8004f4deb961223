"""Tests for R* insertion internals: split selection and the inserter."""

import collections
import contextlib
import hashlib
import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.datagen.tiger import synthetic_tiger
from repro.geometry.rect import Rect
from repro.rtree import deletion, rstar
from repro.rtree.entries import Item
from repro.rtree.node import Node
from repro.rtree.rstar import RStarInserter, choose_split
from repro.rtree.tree import RTree

from tests.conftest import random_rects, seed_budget
from tests.test_pruning_bounds import written_tree


@contextlib.contextmanager
def write_events():
    """Count the R* and CondenseTree events the writes inside reach."""
    seen = collections.Counter()

    def spy(owner, name, event, when=None):
        real = getattr(owner, name)

        def wrapped(*args):
            result = real(*args)
            if when is None or when(*args):
                seen[event] += 1
            return result

        return mock.patch.object(owner, name, wrapped)

    with spy(rstar.RStarInserter, "_split", "split"), \
            spy(rstar.RStarInserter, "_force_reinsert", "reinsert"), \
            spy(deletion, "_condense", "orphans",
                when=lambda tree, path, orphans: bool(orphans)):
        yield seen


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
    @seed_budget(tier1=150)
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


@seed_budget(tier1=20)
@given(st.integers(min_value=0, max_value=10_000), st.integers(5, 60))
def test_random_insertion_always_valid(seed, count):
    tree = RTree(max_entries=4)
    items = random_rects(count, seed=seed, span=50.0, max_side=5.0)
    tree.insert_all(items)
    tree.validate()
    window = Rect(10, 10, 30, 30)
    expected = sorted(oid for rect, oid in items if rect.intersects(window))
    assert sorted(tree.search(window)) == expected


# ----------------------------------------------------------------------
# The trees the writes build, pinned bit for bit
# ----------------------------------------------------------------------


def tree_digest(tree: RTree) -> str:
    """sha256 of the root id, every node's page id, level and size, and
    every entry's coordinates, ref and level (``<4dqi``, so the sign of
    a zero counts), pages in id order."""
    digest = hashlib.sha256(struct.pack("<q", tree.root_id))
    for page_id in sorted(tree.store.page_ids()):
        node = tree._get_node(page_id)
        digest.update(struct.pack("<qii", page_id, node.level, len(node.entries)))
        for entry in node.entries:
            r = entry.rect
            digest.update(struct.pack(
                "<4dqi", r.xmin, r.ymin, r.xmax, r.ymax, entry.ref, entry.level
            ))
    return digest.hexdigest()


def signed_zero_grid_rect(rng: random.Random) -> Rect:
    """A rect on a coarse grid around the origin whose zero coordinates
    are -0.0 half the time (a zero-width side keeps its sign)."""

    def coord() -> float:
        value = rng.randrange(-6, 7) * 2.5
        return -0.0 if value == 0.0 and rng.random() < 0.5 else value

    x, y = coord(), coord()
    w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
    return Rect(x, y, x + w if w else x, y + h if h else y)


def churned_grid_tree() -> tuple[RTree, list[int], collections.Counter]:
    """Seeded inserts and deletes at ``max_entries=8`` that grow the root,
    drain most of the tree (the root shrinks) and grow it again; returns
    the tree, its height after every write and the R* events reached.

    Seed 3 is the one of seeds 1-12 where keeping a child's entry on
    insert when the new rectangle merely lies inside it (not strictly)
    builds another tree: that slip can only flip the sign of a zero
    bound two levels up, which these seeds rarely reach."""
    rng = random.Random(3)
    tree = RTree(max_entries=8)
    live: dict[int, Rect] = {}
    heights = []
    with write_events() as seen:
        for phase_inserts, phase_deletes in ((700, 250), (60, 480), (500, 150)):
            for _ in range(phase_inserts):
                oid = len(heights)
                live[oid] = signed_zero_grid_rect(rng)
                tree.insert(live[oid], oid)
                heights.append(tree.height)
                if rng.random() < phase_deletes / phase_inserts / 2:
                    gone = rng.choice(sorted(live))
                    assert tree.delete(live.pop(gone), gone)
                    heights.append(tree.height)
            for gone in rng.sample(sorted(live), min(phase_deletes, len(live))):
                assert tree.delete(live.pop(gone), gone)
                heights.append(tree.height)
    tree.validate()
    return tree, heights, seen


def relocated_tiger_tree() -> RTree:
    """A bulk-loaded default-fanout tree after 240 relocations the size
    of update-query's (delete, shift by at most 2 units, insert)."""
    data = synthetic_tiger(100, 8000, seed=24)
    tree = RTree.bulk_load(data.hydro)
    current = {oid: rect for rect, oid in data.hydro}
    rng = random.Random(5)
    for _ in range(24):
        for oid in rng.sample(sorted(current), 10):
            old = current[oid]
            assert tree.delete(old, oid)
            dx, dy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            current[oid] = Rect(old.xmin + dx, old.ymin + dy, old.xmax + dx, old.ymax + dy)
            tree.insert(current[oid], oid)
    tree.validate()
    return tree


class TestTreeFingerprint:
    """The exact trees R* writes build, as ``tests/test_sweep_fingerprint.py``
    pins the sweep's output: a change to ChooseSubtree, the split, forced
    reinsertion, CondenseTree or how node MBRs are kept up to date that
    moves one entry, one ref or one zero sign fails here.  A change that
    builds other trees on purpose must re-record the digests (print
    ``tree_digest`` of each tree) and say why."""

    def test_churned_grid_tree(self):
        tree, heights, seen = churned_grid_tree()
        # Every write path was reached: splits, forced reinserts, orphans
        # from CondenseTree, and the root grew and shrank.
        assert seen["split"] and seen["reinsert"] and seen["orphans"], seen
        assert any(b < a for a, b in zip(heights, heights[1:]))
        assert max(heights) >= 4
        # Some directory entry holds a -0.0 bound, so zero signs count.
        assert any(
            coord == 0.0 and math.copysign(1.0, coord) < 0.0
            for node in tree.iter_nodes() if not node.is_leaf
            for entry in node.entries for coord in entry.rect
        )
        assert tree_digest(tree) == CHURNED_GRID_DIGEST

    def test_relocated_tiger_tree(self):
        tree = relocated_tiger_tree()
        assert tree.height == 3
        assert tree_digest(tree) == RELOCATED_TIGER_DIGEST


#: Recorded before node MBRs were kept by the strict-inside rule, when
#: every write recomputed the MBR of each node on its path.
CHURNED_GRID_DIGEST = "54377ec2151cdd350a58f746c8fb0cd2bf1ef993fdcd1361961f4363b31e1819"
RELOCATED_TIGER_DIGEST = "7a2e0ab103cf0e16e5d26bd90c5cfae1339f615482cc26542a43d4a340243d1a"
