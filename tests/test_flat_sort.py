"""The sweep's node sides: one exact sort, once per join, on every backend.

``PlaneSweeper._side`` serves each node side from the sweeper's own
per-join cache, sorted once per axis and direction by ``_sort_side``.
That must equal the decorate-sort on (key, child index) for every node:
the same item objects in the same stable tie order (``-0.0`` beside
``0.0`` included) and the same key bits, on a miss and on a hit, under
either kernels backend.  A hit must still charge the sort, and an object
side (whose id can equal a page id) must never be kept.  The module and
test names date from the flat-arena sort these checks used to compare;
the sweep now sorts ``Node.entries`` itself.
"""

import random
import struct

import pytest

from repro import Rect, RTree
from repro.core.base import JoinContext
from repro.core.pairs import Item
from repro.core.planesweep import PlaneSweeper

#: Edge coordinates that collide: duplicate keys, and 0.0 beside -0.0.
EDGES = (-2.5, -0.0, 0.0, 2.5, 5.0)


def colliding_items(n, seed):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        xmin, xmax = sorted((rng.choice(EDGES), rng.choice(EDGES)))
        ymin, ymax = sorted((rng.choice(EDGES), rng.choice(EDGES)))
        items.append((Rect(xmin, ymin, xmax, ymax), i))
    return items


@pytest.fixture(scope="module")
def trees():
    # R is built by inserts (entries in arrival order), S by bulk load.
    # The two trees share page ids, so a side's key must name its tree.
    tree_r = RTree(max_entries=8)
    tree_r.insert_all(colliding_items(300, seed=1))
    tree_s = RTree.bulk_load(colliding_items(200, seed=2), max_entries=16)
    return tree_r, tree_s


@pytest.fixture(params=["numpy", "pure-python"])
def sort_path(request, kernels_backend):
    """Run the join context on the NumPy or the pure-Python backend."""
    with kernels_backend("numpy" if request.param == "numpy" else "python"):
        yield request.param


def node_sides(ctx, side_r):
    """``(item, children)`` of every node of one side."""
    children = ctx.children_r if side_r else ctx.children_s
    sides = []
    pending = [ctx.root_items()[0 if side_r else 1]]
    while pending:
        item = pending.pop()
        sides.append((item, children(item)))
        pending.extend(child for child in sides[-1][1] if not child.is_object)
    return sides


def decorate_sort(items, axis, forward):
    """The reference side sort: decorate-sort on (key, child index)."""
    if forward:
        keyed = sorted((it.rect.lo(axis), i) for i, it in enumerate(items))
    else:
        keyed = sorted((-it.rect.hi(axis), i) for i, it in enumerate(items))
    return [items[i] for _, i in keyed], [k for k, _ in keyed]


def bits(keys):
    """Keys as raw IEEE bytes, so 0.0 and -0.0 differ."""
    return [struct.pack("<d", key) for key in keys]


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_sorted_side_equals_sort_side(trees, sort_path, axis, forward):
    ties = signed_zeros = 0
    with JoinContext(*trees) as ctx:
        sweeper = PlaneSweeper(ctx.instr)
        for _ in range(2):  # every side misses, then hits
            for side_r in (True, False):
                for item, children in node_sides(ctx, side_r):
                    items, keys = sweeper._side(item, children, side_r, axis, forward)
                    want_items, want_keys = decorate_sort(children, axis, forward)
                    assert [id(x) for x in items] == [id(x) for x in want_items]
                    assert bits(keys) == bits(want_keys)
                    ties += len(set(keys)) < len(keys)
                    signed_zeros += len({bits([k])[0] for k in keys if k == 0.0}) == 2
    # The data must exercise what the sort has to get right.
    assert ties > 10
    assert signed_zeros > 0


def test_hits_charge_the_sort_and_object_sides_are_not_kept(trees, monkeypatch):
    with JoinContext(*trees) as ctx:
        charged = []
        monkeypatch.setattr(ctx.instr, "charge_sort", charged.append)
        sweeper = PlaneSweeper(ctx.instr)
        root = ctx.root_items()[0]
        children = ctx.children_r(root)
        first = sweeper._side(root, children, True, 0, True)
        assert sweeper._side(root, children, True, 0, True) is first
        assert charged == [len(children), len(children)]
        # An object whose id equals the root's page id sorts alone.
        obj = Item.object(Rect(9.0, 9.0, 9.0, 9.0), root.ref)
        assert sweeper._side(obj, [obj], True, 0, True) == ([obj], [9.0])
        assert charged == [len(children), len(children), 1]
        assert list(sweeper._sides) == [(True, root.ref, 0, True)]
