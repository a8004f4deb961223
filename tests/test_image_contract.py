"""The node-block contract: a tree's parallel image is a full build of
its version.

The parallel engine reads a tree through one node block per live page
(``TreeArena``), memoized per ``RTree.version``; every version's blocks
are built in full from ``Node.entries``.  A file-backed tree's blocks
must equal those of the same file loaded into memory, and blocks built
after writes that split, force reinserts, orphan subtrees, grow and
shrink the root must describe the written tree, freed pages excluded.
"""

import random

from repro import Rect, RTree
from repro.kernels.arena import TreeArena
from repro.rtree import FileRTree

from tests.conftest import assert_blocks_describe, describe_blocks


def grid_rect(rng):
    """A small rect on a coarse grid: duplicates and ties are common."""
    x, y = rng.randrange(0, 60) * 2.5, rng.randrange(0, 60) * 2.5
    w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
    return Rect(x, y, x + w, y + h)


class Churn:
    """Seeded inserts, deletes and moves (a delete and an insert)."""

    def __init__(self, tree, rng):
        self.tree = tree
        self.rng = rng
        self.live = {}
        self.next_oid = 0

    def insert(self, oid=None):
        if oid is None:
            oid, self.next_oid = self.next_oid, self.next_oid + 1
        self.live[oid] = grid_rect(self.rng)
        self.tree.insert(self.live[oid], oid)

    def delete(self, oid):
        assert self.tree.delete(self.live.pop(oid), oid)

    def run(self, writes):
        for _ in range(writes):
            op = self.rng.random()
            if op < 0.4 or not self.live:
                self.insert()
                continue
            oid = self.rng.choice(sorted(self.live))
            self.delete(oid)
            if op >= 0.7:
                self.insert(oid)


def test_file_tree_image_equals_loaded_tree_image(tmp_path):
    churn = Churn(RTree(max_entries=6), random.Random(7))
    churn.run(400)
    path = tmp_path / "churned.rt"
    churn.tree.save(path)
    loaded = RTree.load(path)
    with FileRTree.open(path) as file_tree:
        root, blocks = describe_blocks(TreeArena(file_tree, file_tree))
        assert (root, blocks) == describe_blocks(TreeArena(loaded, loaded))
    assert len(blocks) == len(loaded.store)
    assert blocks[root][3] == len(churn.live) == loaded.size


def test_image_after_writes_describes_the_tree():
    churn = Churn(RTree(max_entries=6), random.Random(11))
    assert_blocks_describe(churn.tree)
    for _ in range(6):
        churn.run(80)
        churn.tree.validate()
        assert_blocks_describe(churn.tree)
    # Drain to empty: the root shrinks back to a leaf.
    for oid in sorted(churn.live):
        churn.delete(oid)
    assert churn.tree.height == 1
    assert_blocks_describe(churn.tree)
