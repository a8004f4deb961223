"""The flat-image contract: a patched image equals a fresh full build.

``tree_image`` builds a tree's first image in full and every later
version by copying the previous image and rewriting only the rows that
writes stamped since.  That is exact only if every write path stamps
every page it changes, allocates or frees, vacated slots are zeroed and
``cnt`` is recomputed in ascending level.  The seeded churn below checks
the patched image against a fresh build, byte for byte and layout
included, after every single write: inserts and deletes that split,
force reinserts, orphan subtrees through CondenseTree, grow and shrink
the root, drain the tree to empty and refill it, over bulk-loaded and
insert-built trees with ``max_entries`` 4-16.

Tier-1 runs a few derandomized seeds; ``--hypothesis-profile fuzz``
runs the larger budget of the CI fuzz step.
"""

import collections
import contextlib
import random
from unittest import mock

from hypothesis import example, given, strategies as st

from repro import Rect, RTree
from repro.kernels import arena
from repro.kernels.arena import tree_image
from repro.rtree import FileRTree, deletion, rstar

from tests.conftest import seed_budget


def assert_patched_equals_fresh(tree):
    layout, buf = tree_image(tree)
    fresh_layout, fresh_buf = arena._build_image(tree, None)
    assert layout == fresh_layout
    assert buf == fresh_buf


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


def grid_rect(rng):
    """A small rect on a coarse grid: duplicates and ties are common."""
    x, y = rng.randrange(0, 60) * 2.5, rng.randrange(0, 60) * 2.5
    w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
    return Rect(x, y, x + w, y + h)


class Churn:
    """Seeded writes to one tree, each followed by the image check."""

    def __init__(self, tree, rng, live=None):
        self.tree = tree
        self.rng = rng
        self.live = dict(live or {})
        self.next_oid = max(self.live, default=-1) + 1
        self.seen = collections.Counter()

    def write(self, op) -> None:
        """Run one write, note root growth or shrinking, check the image."""
        height = self.tree.height
        op()
        if self.tree.height > height:
            self.seen["grow"] += 1
        elif self.tree.height < height:
            self.seen["shrink"] += 1
        assert_patched_equals_fresh(self.tree)

    def insert(self, oid=None) -> None:
        if oid is None:
            oid, self.next_oid = self.next_oid, self.next_oid + 1
        self.live[oid] = grid_rect(self.rng)
        self.write(lambda: self.tree.insert(self.live[oid], oid))

    def delete(self, oid) -> None:
        rect = self.live.pop(oid)

        def op():
            assert self.tree.delete(rect, oid)

        self.write(op)

    def run(self, writes: int) -> None:
        """Random inserts, deletes and moves (a delete and an insert)."""
        for _ in range(writes):
            op = self.rng.random()
            if op < 0.4 or not self.live:
                self.insert()
                continue
            oid = self.rng.choice(sorted(self.live))
            self.delete(oid)
            if op >= 0.7:
                self.insert(oid)


@seed_budget(tier1=6)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_entries=st.integers(4, 16),
    bulk=st.booleans(),
)
@example(seed=0, max_entries=4, bulk=True)
@example(seed=1, max_entries=16, bulk=False)
def test_patched_image_equals_fresh_build_after_every_write(seed, max_entries, bulk):
    rng = random.Random(seed)
    n = rng.randrange(8 * max_entries, 14 * max_entries)
    items = [(grid_rect(rng), oid) for oid in range(n)]
    with write_events() as seen:
        if bulk:
            churn = Churn(RTree.bulk_load(items, max_entries=max_entries), rng,
                          {oid: rect for rect, oid in items})
            assert_patched_equals_fresh(churn.tree)
        else:
            churn = Churn(RTree(max_entries=max_entries), rng)
            assert_patched_equals_fresh(churn.tree)
            for _ in range(n):
                churn.insert()
        churn.run(3 * n)
        # Drain to empty (the root shrinks back to a leaf), then refill.
        for oid in rng.sample(sorted(churn.live), len(churn.live)):
            churn.delete(oid)
        assert churn.tree.size == 0 and churn.tree.height == 1
        for _ in range(6 * max_entries):
            churn.insert()
        churn.tree.validate()
    seen.update(churn.seen)
    # The churn reached every write path the stamps cover.  (At
    # max_entries 4 the minimum fill is one entry, so a dissolved node
    # is empty and leaves no orphans.)
    expected = {"split", "reinsert", "orphans", "grow", "shrink"}
    if churn.tree.min_entries == 1:
        expected.discard("orphans")
    assert set(seen) == expected, seen


def test_file_tree_image_equals_loaded_tree_image(tmp_path):
    churn = Churn(RTree(max_entries=6), random.Random(7))
    churn.run(400)
    path = tmp_path / "churned.rt"
    churn.tree.save(path)
    loaded = RTree.load(path)
    with FileRTree.open(path) as file_tree:
        layout, buf = tree_image(file_tree)
        assert (layout, buf) == tree_image(loaded)
    assert layout.rows == len(loaded.store)
    assert layout.size == len(churn.live) == loaded.size
