"""Joins over trees that are written between (and during) joins.

The sequential engines read nodes through ``Node.entries`` only, which
writes edit in place: every join must see the tree as it is now, and
none may build node blocks, before or after writes.  Node blocks are
the parallel engine's image of a tree: they are memoized per
``RTree.version``, so a parallel join after a write builds the written
tree's blocks once, in full, and reuses the other's; an arena opened
before a write must keep reading the old version, and a dropped tree
must take its blocks with it.  An open incremental stream cannot follow
a write at all, so it must refuse to go on (``StaleStreamError``)
instead of serving pairs that name deleted objects.
"""

import gc
import random
import sys
import threading
import weakref

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree, within_distance_join
from repro.core.api import JoinResult
from repro.core.base import JoinContext
from repro.geometry.distances import min_distance
from repro.kernels import arena as arena_mod
from repro.kernels.arena import TreeArena
from repro.parallel.engine import parallel_kdj
from repro.resilience import StaleStreamError
from repro.rtree import FileRTree

from tests.conftest import block_rects, describe_blocks

#: The sequential KDJ engines; ``nlj`` is the brute-force oracle.
SEQUENTIAL_KDJ = ("amkdj", "bkdj", "hs", "sjsort")


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


# ----------------------------------------------------------------------
# Sequential joins build no blocks; parallel joins build one set per version
# ----------------------------------------------------------------------


def sequential_joins(tree_r, tree_s, k):
    """Every sequential engine's run over the trees, keyed by name: the
    KDJ engines, an AM-IDJ pull of ``k`` pairs and the within-join."""
    runner = JoinRunner(tree_r, tree_s)
    runs = {algorithm: runner.kdj(k, algorithm) for algorithm in SEQUENTIAL_KDJ}
    with runner.idj("amidj") as pull:
        runs["amidj"] = JoinResult(pull.next_batch(k), pull.stats())
    runs["within"] = within_distance_join(tree_r, tree_s, 5.0)
    return runs


def test_sequential_joins_follow_writes_and_build_no_image(block_builds, tmp_path):
    items_r = quantized_rects(400, seed=61)
    items_s = quantized_rects(300, seed=62)
    tree_r = RTree.bulk_load(items_r, max_entries=16)
    tree_s = RTree.bulk_load(items_s, max_entries=16)
    live_r = {oid: rect for rect, oid in items_r}
    live_s = {oid: rect for rect, oid in items_s}
    rng = random.Random(63)
    for step in range(5):
        if step:
            # One update step: move 10 S objects (delete + insert).
            for oid in rng.sample(sorted(live_s), 10):
                assert tree_s.delete(live_s[oid], oid)
                x, y = rng.randrange(0, 400) * 2.5, rng.randrange(0, 400) * 2.5
                live_s[oid] = Rect(x, y, x, y)
                tree_s.insert(live_s[oid], oid)
        oracle = JoinRunner(tree_r, tree_s).kdj(120, "nlj")
        runs = sequential_joins(tree_r, tree_s, 120)
        assert block_builds == [], step
        # Reference: the written trees saved and loaded back.
        tree_r.save(tmp_path / "r.rt")
        tree_s.save(tmp_path / "s.rt")
        copies = RTree.load(tmp_path / "r.rt"), RTree.load(tmp_path / "s.rt")
        baseline = sequential_joins(*copies, 120)
        assert block_builds == [], step
        for name, got in runs.items():
            assert stream(got) == stream(baseline[name]), (step, name)
            assert row(got) == row(baseline[name]), (step, name)
            if name != "within":
                assert_matches_oracle(got, oracle, live_r, live_s)
        assert {(p.ref_r, p.ref_s) for p in runs["within"].results} == {
            (oid_r, oid_s)
            for oid_r, rect_r in live_r.items()
            for oid_s, rect_s in live_s.items()
            if min_distance(rect_r, rect_s) <= 5.0
        }


def test_self_join_arena_builds_once_per_version(block_builds):
    tree = RTree.bulk_load(quantized_rects(200, seed=64), max_entries=8)
    arena = TreeArena(tree, tree)
    assert block_builds == [tree]
    assert arena.blocks_r is arena.blocks_s
    assert TreeArena(tree, tree).blocks_r is arena.blocks_r
    assert block_builds == [tree]
    tree.insert(Rect(1.0, 1.0, 3.5, 2.5), 10_000)
    written = TreeArena(tree, tree)
    assert written.blocks_r is written.blocks_s
    assert block_builds == [tree, tree]


def _slots_of(blocks, oid):
    """The rects of every leaf entry of ``oid`` among ``blocks``."""
    return [
        rect
        for block in blocks.values()
        if block.level == 0
        for rect, ref in zip(block_rects(block), block.refs)
        if ref == oid
    ]


def test_arena_opened_before_a_write_keeps_its_version():
    # A new version's blocks are new objects, so an arena on the old
    # ones (another thread's parallel join) reads the pre-write
    # coordinates after the write and after the next build.
    items = quantized_rects(300, seed=67)
    tree = RTree.bulk_load(items, max_entries=8)
    rect, oid = items[17]
    arena = TreeArena(tree, tree)
    before = describe_blocks(arena)
    assert _slots_of(arena.blocks_r, oid) == [rect]
    assert tree.delete(rect, oid)
    moved = Rect(1002.5, 1002.5, 1002.5, 1002.5)
    tree.insert(moved, oid)
    result = JoinRunner(tree, tree).kdj(30, "amkdj")
    assert len(result) == 30
    assert _slots_of(arena.blocks_r, oid) == [rect]
    fresh = TreeArena(tree, tree)
    assert fresh.blocks_r is not arena.blocks_r
    assert _slots_of(fresh.blocks_r, oid) == [moved]
    assert describe_blocks(arena) == before


def test_arena_views_are_read_only():
    # Later arenas share the blocks, so no arena may write through them.
    tree = RTree.bulk_load(quantized_rects(50, seed=65))
    arena = TreeArena(tree, tree)
    block = arena.blocks_r[arena.root_r]
    with pytest.raises((ValueError, TypeError)):
        block.rects.xmin[0] = -1.0
    with pytest.raises(TypeError):
        block.refs[0] = -1
    with pytest.raises(AttributeError):
        block.count = 0


def test_dropped_tree_frees_its_image():
    gc.collect()
    before = len(arena_mod._BLOCKS)
    tree = RTree.bulk_load(quantized_rects(200, seed=66), max_entries=8)
    result = parallel_kdj(tree, tree, 20, JoinConfig(parallel=1))
    assert len(result) == 20
    assert len(arena_mod._BLOCKS) == before + 1
    alive = weakref.ref(tree)
    del tree, result
    gc.collect()
    assert alive() is None
    assert len(arena_mod._BLOCKS) == before


# ----------------------------------------------------------------------
# Child lists are the nodes' own entries
# ----------------------------------------------------------------------


def child_lists(ctx, side_r):
    """page id -> child list of every node of one side, through ``ctx``."""
    children = ctx.children_r if side_r else ctx.children_s
    lists = {}
    pending = [ctx.root_items()[0 if side_r else 1]]
    while pending:
        item = pending.pop()
        lists[item.ref] = children(item)
        for child in lists[item.ref]:
            assert child.level == item.level - 1
            if not child.is_object:
                pending.append(child)
    return lists


def objects(lists):
    """oid -> rect of every object Item in a side's child lists."""
    return {
        child.ref: child.rect
        for items in lists.values() for child in items if child.is_object
    }


def test_children_are_the_nodes_own_entries():
    tree_r = RTree.bulk_load(quantized_rects(300, seed=84), max_entries=8)
    tree_s = RTree.bulk_load(quantized_rects(250, seed=85), max_entries=8)
    for tree, children in ((tree_r, "children_r"), (tree_s, "children_s")):
        with JoinContext(tree_r, tree_s) as ctx:
            accessor = ctx.accessor_r if tree is tree_r else ctx.accessor_s
            for node in tree.iter_nodes():
                item = node.item()
                before = accessor.logical_accesses
                assert getattr(ctx, children)(item) is node.entries
                # Every call still counts (and charges) the node access.
                assert accessor.logical_accesses == before + 1
                if node.is_leaf:
                    obj = node.entries[0]
                    assert getattr(ctx, children)(obj) == [obj]


def test_joins_over_unchanged_trees_share_child_lists():
    tree_r = RTree.bulk_load(quantized_rects(300, seed=81), max_entries=8)
    tree_s = RTree.bulk_load(quantized_rects(200, seed=82), max_entries=8)
    with JoinContext(tree_r, tree_s) as first:
        lists_r = child_lists(first, True)
        lists_s = child_lists(first, False)
    with JoinContext(tree_r, tree_s) as second:
        again_r = child_lists(second, True)
        again_s = child_lists(second, False)
    # Metering does not depend on sharing: the second walk counts and
    # charges every access the first did (+2: each walk's root_items
    # reads both roots).
    for ctx in (first, second):
        assert ctx.accessor_r.logical_accesses == len(lists_r) + 2
        assert ctx.accessor_s.logical_accesses == len(lists_s) + 2
    assert second.disk.stats == first.disk.stats
    assert second.disk.clock == first.disk.clock
    assert again_r.keys() == lists_r.keys()
    assert all(again_r[page] is lists_r[page] for page in lists_r)
    assert all(again_s[page] is lists_s[page] for page in lists_s)


def test_self_join_sides_share_child_lists():
    tree = RTree.bulk_load(quantized_rects(200, seed=83), max_entries=8)
    with JoinContext(tree, tree) as ctx:
        lists_r = child_lists(ctx, True)
        lists_s = child_lists(ctx, False)
    assert all(lists_s[page] is lists_r[page] for page in lists_r)


def test_writes_rebuild_only_the_written_trees_child_lists():
    items_r = quantized_rects(300, seed=84)
    items_s = quantized_rects(250, seed=85)
    tree_r = RTree.bulk_load(items_r, max_entries=8)
    tree_s = RTree.bulk_load(items_s, max_entries=8)
    live_r = {oid: rect for rect, oid in items_r}
    live_s = {oid: rect for rect, oid in items_s}
    runner = JoinRunner(tree_r, tree_s)
    for algorithm in SEQUENTIAL_KDJ:
        runner.kdj(100, algorithm)
    with JoinContext(tree_r, tree_s) as ctx:
        before_r = child_lists(ctx, True)
        before_s = child_lists(ctx, False)
    assert objects(before_s) == live_s

    rng = random.Random(86)
    moved, deleted = rng.sample(sorted(live_s), 2)
    assert tree_s.delete(live_s[moved], moved)
    live_s[moved] = Rect(1005.0, 1005.0, 1007.5, 1005.0)
    tree_s.insert(live_s[moved], moved)
    for oid in rng.sample(sorted(set(live_s) - {moved}), 40) + [deleted]:
        assert tree_s.delete(live_s.pop(oid), oid)

    with JoinContext(tree_r, tree_s) as ctx:
        after_r = child_lists(ctx, True)
        after_s = child_lists(ctx, False)
    assert objects(after_s) == live_s
    assert moved in objects(after_s) and deleted not in objects(after_s)
    assert all(after_r[page] is before_r[page] for page in before_r)
    # Writes edit the written tree's entries in place, so a join reads
    # each S node's entries as they are now.
    assert all(after_s[page] is tree_s.store.read(page).entries for page in after_s)
    oracle = runner.kdj(100, "nlj")
    for algorithm in SEQUENTIAL_KDJ:
        assert_matches_oracle(runner.kdj(100, algorithm), oracle, live_r, live_s)


def test_op_sequence_matches_fresh_trees_op_for_op():
    # Every op over shared (long-lived) trees must be the op a fresh
    # process would run: same stream, counters and simulated clock bits,
    # whatever earlier ops left in the memos.
    items_r = quantized_rects(400, seed=88)
    items_s = quantized_rects(300, seed=89)
    runner = JoinRunner(
        RTree.bulk_load(items_r, max_entries=16),
        RTree.bulk_load(items_s, max_entries=16),
    )
    ladder = [("amkdj", 40), ("bkdj", 40), ("hs", 40), ("sjsort", 40),
              ("sjsort", 150), ("hs", 150), ("bkdj", 150), ("amkdj", 150)]
    for algorithm, k in ladder:
        got = runner.kdj(k, algorithm)
        fresh = JoinRunner(
            RTree.bulk_load(items_r, max_entries=16),
            RTree.bulk_load(items_s, max_entries=16),
        ).kdj(k, algorithm)
        assert stream(got) == stream(fresh), (algorithm, k)
        assert row(got) == row(fresh), (algorithm, k)
        for clock in ("response_time", "io_time", "cpu_time"):
            assert getattr(got.stats, clock) == getattr(fresh.stats, clock)


def test_threads_racing_on_the_child_memo_still_agree():
    # Joins in threads share the trees' nodes; every join must still be
    # the lone join.
    items_r = quantized_rects(300, seed=90)
    items_s = quantized_rects(250, seed=91)
    trees = (RTree.bulk_load(items_r, max_entries=8),
             RTree.bulk_load(items_s, max_entries=8))
    reference = {
        algorithm: JoinRunner(
            RTree.bulk_load(items_r, max_entries=8),
            RTree.bulk_load(items_s, max_entries=8),
        ).kdj(80, algorithm)
        for algorithm in SEQUENTIAL_KDJ
    }
    results = {}

    def join(i):
        algorithm = SEQUENTIAL_KDJ[i % len(SEQUENTIAL_KDJ)]
        results[i] = (algorithm, JoinRunner(*trees).kdj(80, algorithm))

    threads = [threading.Thread(target=join, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(8))
    for algorithm, got in results.values():
        assert stream(got) == stream(reference[algorithm]), algorithm
        assert row(got) == row(reference[algorithm]), algorithm


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
