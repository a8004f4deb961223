"""Every node bound is a true lower bound.

Pruning from bounds alone is exact only while a node pair's minimum
distance never exceeds the distance of any object pair below it: a
pair pruned at ``mindist > cutoff`` must hide no answer.  Seeded trees,
built by inserts (with R* forced reinserts), deletes (with CondenseTree
reinserting orphans) and more inserts, hold rects on a grid, so exact
distance ties are common; the grid is also scaled near 1e-160, where
the squared gaps underflow, and near 1e154, where they overflow.  For
every R entry and S entry at any level, objects and roots included, the
minimum distance from ``Rect.min_dist``, from ``min_distance``, from
both kernels backends' block calls and from HS's child-list scan must be
at most the distance of every object pair below the two entries.

Tier-1 runs a few derandomized seeds per scale; ``--hypothesis-profile
fuzz`` runs the larger budget of the CI fuzz step.
"""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from repro import Rect, RTree
from repro.geometry.distances import min_distance
from repro.kernels.window import ChildWindow, scan_all

from tests.conftest import BACKENDS, seed_budget

#: Grid scales: plain, squares that underflow, squares that overflow.
SCALES = [1.0, 1e-160, 1e154]


def grid_rect(rng, scale):
    x, y = rng.randrange(0, 40) * 2.5, rng.randrange(0, 40) * 2.5
    w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
    return Rect(x * scale, y * scale, (x + w) * scale, (y + h) * scale)


def written_tree(rng, scale):
    """A tree after inserts, deletes and inserts; returns it and its objects."""
    tree = RTree(max_entries=rng.randrange(4, 9))
    live = {}
    for oid in range(rng.randrange(10, 70)):
        live[oid] = grid_rect(rng, scale)
        tree.insert(live[oid], oid)
    for oid in rng.sample(sorted(live), len(live) // 3):
        assert tree.delete(live.pop(oid), oid)
    for oid in range(100, 100 + rng.randrange(0, 30)):
        live[oid] = grid_rect(rng, scale)
        tree.insert(live[oid], oid)
    tree.validate()
    return tree, live


def entries_below(tree):
    """``(entry, object ids below it)`` for every entry, the root's too."""
    found = []

    def walk(node):
        oids = []
        for entry in node.entries:
            under = [entry.ref] if entry.is_object else walk(tree._get_node(entry.ref))
            found.append((entry, under))
            oids.extend(under)
        return oids

    root = tree.root
    found.append((root.item(), walk(root)))
    return found


def block(kern, rects):
    """A coordinate block of ``rects`` in the backend's own layout."""
    columns = (
        [r.xmin for r in rects], [r.ymin for r in rects],
        [r.xmax for r in rects], [r.ymax for r in rects],
    )
    if kern.name == "numpy":
        from repro.kernels.numpy_backend import PackedRects

        return PackedRects(*columns)
    return SimpleNamespace(
        xmin=columns[0], ymin=columns[1], xmax=columns[2], ymax=columns[3]
    )


def bound_tables(entries_r, entries_s, kernels_backend):
    """name -> mindist matrix over (R entry, S entry), one per method."""
    rects_r = [entry.rect for entry, _ in entries_r]
    rects_s = [entry.rect for entry, _ in entries_s]
    window = ChildWindow(rects_s)
    tables = {
        "Rect.min_dist": [[a.min_dist(b) for b in rects_s] for a in rects_r],
        "min_distance": [[min_distance(a, b) for b in rects_s] for a in rects_r],
        "scan_all": [[d for _, d in scan_all(a, rects_s)] for a in rects_r],
        "ChildWindow.within": [
            [d for _, d in window.within(a, math.inf)] for a in rects_r
        ],
    }
    for backend in BACKENDS:
        with kernels_backend(backend) as kern:
            block_r, block_s = block(kern, rects_r), block(kern, rects_s)
            within = [[math.nan] * len(rects_s) for _ in rects_r]
            for i, rect in enumerate(rects_r):
                for j, dist in kern.block_within(rect, block_s, math.inf):
                    within[i][j] = dist
            tables[f"{backend}.block_within"] = within
            cross = [[math.nan] * len(rects_s) for _ in rects_r]
            rows, cols, dists, _, _ = kern.cross_within(block_r, block_s, math.inf)
            for i, j, dist in zip(rows, cols, dists):
                cross[i][j] = dist
            tables[f"{backend}.cross_within"] = cross
    return tables


def check_lower_bounds(tree_r, live_r, tree_s, live_s, kernels_backend):
    entries_r = entries_below(tree_r)
    entries_s = entries_below(tree_s)
    index_s = {oid: j for j, oid in enumerate(live_s)}
    objects_s = list(live_s.values())
    tables = bound_tables(entries_r, entries_s, kernels_backend)
    for i, (entry_r, under_r) in enumerate(entries_r):
        # Per S object: its closest R object below entry_r.
        nearest = [
            min(min_distance(live_r[oid], obj) for oid in under_r)
            for obj in objects_s
        ]
        for j, (entry_s, under_s) in enumerate(entries_s):
            lower = min(nearest[index_s[oid]] for oid in under_s)
            for name, table in tables.items():
                bound = table[i][j]
                assert bound <= lower, (
                    name, entry_r, entry_s, bound, lower
                )


@pytest.mark.parametrize("scale", SCALES)
@seed_budget(tier1=3)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)  # at 1e154 the R* split raised on areas that read inf
def test_node_bounds_never_exceed_the_objects_below(kernels_backend, scale, seed):
    rng = random.Random(seed)
    tree_r, live_r = written_tree(rng, scale)
    tree_s, live_s = written_tree(rng, scale)
    check_lower_bounds(tree_r, live_r, tree_s, live_s, kernels_backend)
