"""Joins over trees that are written between (and during) joins.

Each tree's flat image is memoized per ``RTree.version``: a write must
re-serialize exactly the tree it changed, every flat join must see the
tree as it is now, and a dropped tree must take its image with it.  An
open incremental stream cannot follow a write at all, so it must refuse
to go on (``StaleStreamError``) instead of serving pairs that name
deleted objects.
"""

import gc
import random
import weakref

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree
from repro.geometry.distances import min_distance
from repro.kernels import arena as arena_mod
from repro.kernels.arena import TreeArena
from repro.resilience import StaleStreamError
from repro.rtree import FileRTree

pytest.importorskip("numpy")

#: Engines the flat path serves; ``nlj`` is the brute-force oracle.
FLAT_KDJ = ("amkdj", "bkdj", "hs")
#: Explicit NumPy kernels: the flat path needs a batched backend, and
#: the suite also runs under ``REPRO_KERNELS=python``.
FLAT = dict(kernels="numpy")
NO_FLAT = dict(kernels="numpy", flat=False)


def quantized_rects(n, seed):
    """Rects on a coarse grid, so many pair distances tie exactly."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.randrange(0, 400) * 2.5, rng.randrange(0, 400) * 2.5
        w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
        items.append((Rect(x, y, x + w, y + h), i))
    return items


def stream(result):
    return [(p.distance, p.ref_r, p.ref_s) for p in result.results]


def row(result):
    data = result.stats.as_row()
    data.pop("wall_time", None)
    return data


def assert_matches_oracle(result, oracle, live_r, live_s):
    """Tie-aware: same distance multiset, every pair live at its distance."""
    assert sorted(p.distance for p in result.results) == sorted(
        p.distance for p in oracle.results
    )
    for p in result.results:
        assert min_distance(live_r[p.ref_r], live_s[p.ref_s]) == p.distance


def count(calls, tree):
    return sum(1 for seen in calls if seen is tree)


# ----------------------------------------------------------------------
# Per-tree images
# ----------------------------------------------------------------------


def test_flat_joins_follow_writes_and_reserialize_only_the_written_tree(
    serializations,
):
    items_r = quantized_rects(400, seed=61)
    items_s = quantized_rects(300, seed=62)
    tree_r = RTree.bulk_load(items_r, max_entries=16)
    tree_s = RTree.bulk_load(items_s, max_entries=16)
    live_r = {oid: rect for rect, oid in items_r}
    live_s = {oid: rect for rect, oid in items_s}
    rng = random.Random(63)
    steps = 4
    for step in range(steps + 1):
        if step:
            # One update step: move 10 S objects (delete + insert).
            for oid in rng.sample(sorted(live_s), 10):
                assert tree_s.delete(live_s[oid], oid)
                x, y = rng.randrange(0, 400) * 2.5, rng.randrange(0, 400) * 2.5
                live_s[oid] = Rect(x, y, x, y)
                tree_s.insert(live_s[oid], oid)
        runner = JoinRunner(tree_r, tree_s, JoinConfig(**FLAT))
        baseline = JoinRunner(tree_r, tree_s, JoinConfig(**NO_FLAT))
        oracle = baseline.kdj(120, "nlj")
        for algorithm in FLAT_KDJ:
            flat = runner.kdj(120, algorithm)
            ref = baseline.kdj(120, algorithm)
            assert stream(flat) == stream(ref), (step, algorithm)
            assert row(flat) == row(ref), (step, algorithm)
            assert_matches_oracle(flat, oracle, live_r, live_s)
    assert count(serializations, tree_r) == 1
    assert count(serializations, tree_s) == steps + 1


def test_self_join_arena_serializes_once(serializations):
    tree = RTree.bulk_load(quantized_rects(200, seed=64), max_entries=8)
    arena = TreeArena(tree, tree, use_shm=False)
    try:
        assert serializations == [tree]
        assert bytes(arena.view_r.eref) == bytes(arena.view_s.eref)
    finally:
        arena.close()
    TreeArena(tree, tree, use_shm=False).close()
    assert serializations == [tree]


def test_arena_views_are_read_only():
    # Later arenas share the image, so no arena may write through it.
    tree = RTree.bulk_load(quantized_rects(50, seed=65))
    arena = TreeArena(tree, tree, use_shm=False)
    try:
        with pytest.raises((ValueError, TypeError)):
            arena.view_r.exmin[0] = -1.0
    finally:
        arena.close()


def test_dropped_tree_frees_its_image():
    gc.collect()
    before = len(arena_mod._IMAGES)
    tree = RTree.bulk_load(quantized_rects(200, seed=66), max_entries=8)
    result = JoinRunner(tree, tree, JoinConfig(**FLAT)).kdj(20, "amkdj")
    assert len(result) == 20
    assert len(arena_mod._IMAGES) == before + 1
    alive = weakref.ref(tree)
    del tree, result
    gc.collect()
    assert alive() is None
    assert len(arena_mod._IMAGES) == before


# ----------------------------------------------------------------------
# Incremental streams over written trees
# ----------------------------------------------------------------------


def point_items(n, seed):
    rng = random.Random(seed)
    return [
        (Rect.from_point(rng.uniform(0, 1000), rng.uniform(0, 1000)), i)
        for i in range(n)
    ]


@pytest.mark.parametrize("algorithm", ["amidj", "hs"])
def test_stream_refuses_to_serve_after_a_delete(algorithm, tmp_path):
    items_s = point_items(1000, seed=72)
    tree_r = RTree.bulk_load(point_items(1000, seed=71), max_entries=16)
    tree_s = RTree.bulk_load(items_s, max_entries=16)
    config = JoinConfig(queue_memory=4096, spill_dir=str(tmp_path))
    stream = JoinRunner(tree_r, tree_s, config).idj(algorithm)
    assert len(stream.next_batch(50)) == 50
    assert list(tmp_path.glob("*.pile")), "the queue should have spilled"
    for rect, oid in items_s[:200]:
        assert tree_s.delete(rect, oid)
    with pytest.raises(StaleStreamError):
        stream.next_batch(500)
    # Closed on the way out: no spill file survives, nothing more comes.
    assert list(tmp_path.iterdir()) == []
    assert stream.next_batch(10) == []


@pytest.mark.parametrize("algorithm", ["amidj", "hs"])
def test_iterating_stream_refuses_after_an_insert_into_r(algorithm):
    tree_r = RTree.bulk_load(point_items(300, seed=73), max_entries=8)
    tree_s = RTree.bulk_load(point_items(300, seed=74), max_entries=8)
    with JoinRunner(tree_r, tree_s).idj(algorithm) as stream:
        pairs = iter(stream)
        for _ in range(5):
            next(pairs)
        tree_r.insert(Rect.from_point(500.0, 500.0), 10_000)
        with pytest.raises(StaleStreamError):
            next(pairs)


@pytest.mark.parametrize("algorithm", ["amidj", "hs"])
def test_file_trees_never_go_stale(algorithm, tmp_path):
    tree_r = RTree.bulk_load(point_items(500, seed=75), max_entries=16)
    tree_s = RTree.bulk_load(point_items(500, seed=76), max_entries=16)
    with JoinRunner(tree_r, tree_s).idj(algorithm) as ref:
        expected = [(p.distance, p.ref_r, p.ref_s) for p in ref.next_batch(600)]
    tree_r.save(tmp_path / "r.rt")
    tree_s.save(tmp_path / "s.rt")
    with FileRTree.open(tmp_path / "r.rt") as file_r, \
            FileRTree.open(tmp_path / "s.rt") as file_s:
        runner = JoinRunner(file_r, file_s)
        with runner.idj(algorithm) as got:
            pulled = got.next_batch(100)
            # Other joins over the same file trees in between are reads.
            assert len(runner.kdj(30, "amkdj")) == 30
            for pair in got:
                pulled.append(pair)
                if len(pulled) == 600:
                    break
        assert file_r.version == file_s.version == 0
    assert [(p.distance, p.ref_r, p.ref_s) for p in pulled] == expected
