"""Focused tests on the HS baseline's expansion behavior."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import JoinConfig, JoinRunner
from repro.core.base import pick_expansion_side
from repro.core.pairs import Item
from repro.geometry.rect import Rect
from repro.rtree.tree import RTree

from tests.conftest import random_rects


def obj(ref=0):
    return Item.object(Rect(0, 0, 1, 1), ref)


def node(level, ref=0):
    return Item.node(Rect(0, 0, 1, 1), ref, level)


class TestPickExpansionSide:
    def test_object_sides_never_expand(self):
        assert pick_expansion_side(obj(), node(2)) is False
        assert pick_expansion_side(node(2), obj()) is True

    def test_level_policy_expands_deeper_side(self):
        assert pick_expansion_side(node(3), node(1)) is True
        assert pick_expansion_side(node(1), node(3)) is False

    def test_level_policy_tie_expands_r(self):
        assert pick_expansion_side(node(2), node(2)) is True


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_level_policy_generates_each_pair_once(seed):
    """The duplicate-freedom guarantee, under full exhaustion."""
    items_r = random_rects(30, seed=seed, span=100)
    items_s = random_rects(25, seed=seed + 1, span=100)
    runner = JoinRunner(
        RTree.bulk_load(items_r, max_entries=4),
        RTree.bulk_load(items_s, max_entries=4),
        JoinConfig(queue_memory=4 * 1024),
    )
    pairs = [(p.ref_r, p.ref_s) for p in runner.idj("hs")]
    assert len(pairs) == 30 * 25
    assert len(set(pairs)) == 30 * 25


def test_all_pairs_distance_queue_reduces_or_keeps_insertions():
    """Footnote 1's option (1): max-distance entries can only tighten the
    cutoff earlier, never produce wrong results."""
    items_r = random_rects(100, seed=5)
    items_s = random_rects(80, seed=6)
    tree_r = RTree.bulk_load(items_r, max_entries=8)
    tree_s = RTree.bulk_load(items_s, max_entries=8)
    objects_only = JoinRunner(
        tree_r, tree_s, JoinConfig(queue_memory=8 * 1024)
    ).kdj(100, "hs")
    all_pairs = JoinRunner(
        tree_r, tree_s,
        JoinConfig(queue_memory=8 * 1024, distance_queue_all_pairs=True),
    ).kdj(100, "hs")
    assert [round(d, 9) for d in all_pairs.distances] == [
        round(d, 9) for d in objects_only.distances
    ]
    assert all_pairs.stats.distance_queue_insertions >= (
        objects_only.stats.distance_queue_insertions
    )


@pytest.mark.parametrize("k", [10, 500])
def test_dequeue_only_pruning_queues_every_computed_pair(k):
    """``hs_insert_pruning=False``: qDmax filters no insertion, even
    inside the child batch in which it becomes finite."""
    tree_r = RTree.bulk_load(random_rects(200, seed=7), max_entries=16)
    tree_s = RTree.bulk_load(random_rects(150, seed=8), max_entries=16)
    runs = {
        flag: JoinRunner(tree_r, tree_s, JoinConfig(hs_insert_pruning=flag)).kdj(k, "hs")
        for flag in (True, False)
    }
    off = runs[False].stats
    assert off.queue_insertions == off.real_distance_computations
    assert runs[True].stats.queue_insertions < off.queue_insertions
    assert runs[False].distances == runs[True].distances
