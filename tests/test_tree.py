"""Tests for the RTree facade: queries, validation, persistence, access."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.geometry.rect import Rect
from repro.rtree.entries import OBJECT_LEVEL, Item
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage.disk import SimulatedDisk

from tests.conftest import random_rects


class TestFacade:
    def test_fanout_from_page_size(self):
        assert RTree(page_size=4096).max_entries == (4096 - 8) // 40
        assert RTree(page_size=1024).max_entries == (1024 - 8) // 40

    def test_min_entries_ratio(self):
        tree = RTree(max_entries=10)
        assert tree.min_entries == 4

    def test_tiny_fanout_rejected(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3)

    def test_empty_tree_properties(self):
        tree = RTree(max_entries=8)
        assert tree.size == 0
        assert tree.height == 1
        assert tree.search(Rect(0, 0, 1, 1)) == []
        tree.validate()

    def test_bounds(self):
        tree = RTree.bulk_load([(Rect(1, 2, 3, 4), 0), (Rect(-1, 0, 0, 9), 1)])
        assert tree.bounds() == Rect(-1, 0, 3, 9)

    def test_count_in(self):
        items = random_rects(100, seed=1)
        tree = RTree.bulk_load(items, max_entries=8)
        window = Rect(0, 0, 400, 400)
        assert tree.count_in(window) == sum(
            1 for rect, _ in items if rect.intersects(window)
        )

    def test_node_count_and_iteration(self):
        tree = RTree.bulk_load(random_rects(500, seed=2), max_entries=8)
        nodes = list(tree.iter_nodes())
        assert len(nodes) == tree.node_count()
        assert sum(1 for n in nodes if n.is_leaf) >= len(nodes) // 2


class TestValidationDetectsCorruption:
    def test_detects_bad_containment(self):
        tree = RTree.bulk_load(random_rects(200, seed=3), max_entries=8)
        # Corrupt: shrink the root's first child entry so it no longer
        # contains its subtree.
        root = tree.root
        victim = root.entries[0]
        root.entries[0] = Item(Rect(0, 0, 0.1, 0.1), victim.ref, victim.level)
        with pytest.raises(AssertionError):
            tree.validate()

    @pytest.mark.parametrize("built", ["bulk", "inserted"])
    def test_detects_loose_directory_entry(self, built):
        # A directory entry that still contains its child but is larger
        # than the child's MBR (a stale entry a write forgot to refresh).
        items = random_rects(200, seed=3)
        if built == "bulk":
            tree = RTree.bulk_load(items, max_entries=8)
        else:
            tree = RTree(max_entries=8)
            tree.insert_all(items)
        tree.validate()
        assert tree.height >= 3
        parent = next(n for n in tree.iter_nodes() if n.level == 1)
        victim = parent.entries[-1]
        r = victim.rect
        loose = Rect(r.xmin, r.ymin, r.xmax, math.nextafter(r.ymax, math.inf))
        assert loose.contains(tree._get_node(victim.ref).mbr())
        parent.entries[-1] = Item(loose, victim.ref, victim.level)
        with pytest.raises(AssertionError, match="parent entry"):
            tree.validate()

    @pytest.mark.parametrize("where", ["leaf", "directory"])
    def test_detects_wrong_entry_level(self, where):
        tree = RTree.bulk_load(random_rects(200, seed=3), max_entries=8)
        assert tree.height >= 3
        node = next(
            n for n in tree.iter_nodes() if n.is_leaf == (where == "leaf")
        )
        victim = node.entries[0]
        # A leaf entry tagged as a node, or a directory entry one level
        # off (its child is still at the old level).
        wrong = 0 if victim.level == OBJECT_LEVEL else victim.level + 1
        node.entries[0] = Item(victim.rect, victim.ref, wrong)
        with pytest.raises(AssertionError, match="level"):
            tree.validate()

    def test_detects_wrong_size(self):
        tree = RTree.bulk_load(random_rects(50, seed=4), max_entries=8)
        tree.size = 49
        with pytest.raises(AssertionError):
            tree.validate()

    def test_checks_run_under_python_dash_o(self):
        # The checks are explicit raises: ``-O`` strips assert statements
        # (the script's own first line proves it ran with ``-O``).
        script = textwrap.dedent(
            """
            import random
            from repro import Rect, RTree

            assert False, "this process must run with -O"
            rng = random.Random(5)
            tree = RTree.bulk_load(
                [(Rect.from_point(rng.uniform(0, 100), rng.uniform(0, 100)), i)
                 for i in range(500)],
                max_entries=8,
            )
            leaf = next(node for node in tree.iter_nodes() if node.is_leaf)
            leaf.entries.clear()
            try:
                tree.validate()
            except AssertionError as exc:
                print("caught:", exc)
            else:
                print("validate() passed a corrupt tree")
            """
        )
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        ).stdout
        assert out.startswith("caught: node ") and out.rstrip().endswith("is empty")


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        items = random_rects(400, seed=5)
        tree = RTree.bulk_load(items, max_entries=16)
        path = tmp_path / "tree.rt"
        tree.save(path)
        loaded = RTree.load(path)
        loaded.validate()
        assert loaded.size == tree.size
        assert loaded.height == tree.height
        window = Rect(100, 100, 300, 300)
        assert sorted(loaded.search(window)) == sorted(tree.search(window))

    def test_roundtrip_after_dynamic_inserts(self, tmp_path):
        tree = RTree(max_entries=8)
        tree.insert_all(random_rects(150, seed=6))
        path = tmp_path / "dyn.rt"
        tree.save(path)
        loaded = RTree.load(path)
        loaded.validate()
        assert loaded.size == 150

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rt"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError, match="not an R-tree"):
            RTree.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        tree = RTree.bulk_load(random_rects(100, seed=7))
        path = tmp_path / "trunc.rt"
        tree.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            RTree.load(path)


class TestTreeAccessor:
    def test_counts_and_charges(self):
        tree = RTree.bulk_load(random_rects(300, seed=8), max_entries=8)
        disk = SimulatedDisk()
        accessor = TreeAccessor(tree, disk, buffer_bytes=8 * 4096)
        accessor.get(tree.root_id)
        accessor.get(tree.root_id)
        assert accessor.logical_accesses == 2
        assert accessor.physical_reads == 1
        assert disk.stats.random_reads == 1

    def test_root_property(self):
        tree = RTree.bulk_load(random_rects(50, seed=9), max_entries=8)
        accessor = TreeAccessor(tree, SimulatedDisk(), buffer_bytes=4096)
        assert accessor.root.page_id == tree.root_id
