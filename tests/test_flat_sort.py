"""The arena sort serves every backend, with or without NumPy.

``FlatHotPath.sorted_side`` must return exactly what
``PlaneSweeper._sort_side`` returns for the same node: the same item
objects in the same stable tie order, and the same key floats, whether
it sorts with NumPy's stable argsort or in pure Python.  Under the
pure-Python backend the sweeping engines must still be served from the
arena, with no packs.
"""

import random
import struct

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree
from repro.core.base import EngineOptions, JoinContext
from repro.core.planesweep import PlaneSweeper
from repro.kernels import flat as flat_mod

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
    tree_r = RTree(max_entries=8)
    tree_r.insert_all(colliding_items(300, seed=1))
    tree_s = RTree.bulk_load(colliding_items(200, seed=2), max_entries=16)
    return tree_r, tree_s


@pytest.fixture(params=["numpy", "pure-python"])
def sort_path(request, monkeypatch):
    """Run ``sorted_side`` with NumPy's argsort, or with NumPy hidden."""
    if request.param == "numpy":
        if flat_mod._np is None:
            pytest.skip("NumPy is not importable")
    else:
        monkeypatch.setattr(flat_mod, "_np", None)
    return request.param


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


def bits(keys):
    """Keys as raw IEEE bytes, so 0.0 and -0.0 differ."""
    return [struct.pack("<d", key) for key in keys]


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_sorted_side_equals_sort_side(trees, sort_path, axis, forward):
    ties = signed_zeros = 0
    with JoinContext(*trees, options=EngineOptions(kernels="python")) as ctx:
        flat = ctx.flat_path()
        sweeper = PlaneSweeper(ctx.instr)
        for side_r in (True, False):
            for item, children in node_sides(ctx, side_r):
                items, keys, pack = flat.sorted_side(
                    side_r, item, children, axis, forward
                )
                want_items, want_keys = sweeper._sort_side(children, axis, forward)
                assert [id(x) for x in items] == [id(x) for x in want_items]
                assert bits(keys) == bits(want_keys)
                assert pack is None
                ties += len(set(keys)) < len(keys)
                signed_zeros += len({bits([k])[0] for k in keys if k == 0.0}) == 2
    # The data must exercise what the sort has to get right.
    assert ties > 10
    assert signed_zeros > 0


@pytest.mark.parametrize("algorithm", ["bkdj", "sjsort"])
def test_python_backend_sweeps_from_the_arena(trees, flat_served, algorithm):
    runner = JoinRunner(*trees, JoinConfig(kernels="python"))
    oracle = runner.kdj(200, "nlj")
    result = runner.kdj(200, algorithm, oracle.results[-1].distance)
    assert flat_served, f"{algorithm} did not sweep on the flat body"
    assert all(pack is None for _, _, pack in flat_served)
    assert sorted(result.distances) == oracle.distances
