"""Write-then-join differential test: every engine agrees with ``nlj``.

Seeded write steps insert, move and delete objects of R, of S, or of one
tree joined with itself.  After each step HS, B-KDJ, AM-KDJ, SJ-SORT
(given the oracle's k-th distance as ``dmax``), an AM-IDJ pull and the
parallel engine's inline drain run under both kernel backends and must agree with
the brute-force oracle, tie-aware: the same distance multiset, and every
returned pair a distinct pair of live objects at its reported distance.
The joins between steps read node entry lists that writes edited in
place, and the parallel engine's node blocks rebuilt from them; this is
the net under both.

Each step also saves both trees and joins what the page codec decodes:
an ``RTree.load`` copy and a ``FileRTree.open`` view must hold the
written trees' entries, levels included, and agree with the same oracle.

The same steps also run on the grid scaled by 1e-160, where squared
gaps underflow to 0.0, and by 1e154, where they overflow to inf.

Tier-1 runs a few derandomized seeds; ``--hypothesis-profile fuzz``
runs the larger budget of the CI fuzz step.  A seed that ever fails
becomes an ``@example`` here.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from repro import JoinConfig, JoinRunner, Rect, RTree, parallel_kdj
from repro.geometry.distances import min_distance
from repro.rtree import FileRTree

from tests.conftest import BACKENDS, seed_budget

STEPS = 6


#: Grid scales beside 1: squared gaps that underflow, and that overflow.
LIMIT_SCALES = [1e-160, 1e154]


def grid_rect(rng, scale=1.0):
    """A small rect on a coarse grid: exact distance ties are common."""
    x, y = rng.randrange(0, 80) * 2.5, rng.randrange(0, 80) * 2.5
    w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
    return Rect(x * scale, y * scale, (x + w) * scale, (y + h) * scale)


def build(rng, max_entries, scale=1.0):
    """A tree of 20-90 objects, bulk-loaded or built by inserts."""
    live = {oid: grid_rect(rng, scale) for oid in range(rng.randrange(20, 90))}
    items = [(rect, oid) for oid, rect in live.items()]
    if rng.random() < 0.5:
        return RTree.bulk_load(items, max_entries=max_entries), live
    tree = RTree(max_entries=max_entries)
    tree.insert_all(items)
    return tree, live


def write_step(tree, live, rng, scale=1.0):
    """1-12 inserts, moves and deletes; the tree keeps one object."""
    for _ in range(rng.randrange(1, 13)):
        op = rng.random()
        if op < 0.35:
            oid = max(live) + 1
            live[oid] = grid_rect(rng, scale)
            tree.insert(live[oid], oid)
            continue
        if len(live) < 2:
            continue
        oid = rng.choice(sorted(live))
        assert tree.delete(live.pop(oid), oid)
        if op < 0.75:
            live[oid] = grid_rect(rng, scale)
            tree.insert(live[oid], oid)


def assert_agrees(pairs, oracle, live_r, live_s, label):
    distances = sorted(pair.distance for pair in pairs)
    assert distances == oracle, label
    seen = set()
    for pair in pairs:
        key = (pair.ref_r, pair.ref_s)
        assert key not in seen, (label, key)
        seen.add(key)
        assert pair.ref_r in live_r and pair.ref_s in live_s, (label, key)
        got = min_distance(live_r[pair.ref_r], live_s[pair.ref_s])
        assert got == pair.distance, (label, key)


def nlj_distances(tree_r, tree_s, k):
    return sorted(
        pair.distance for pair in JoinRunner(tree_r, tree_s).kdj(k, "nlj").results
    )


def check_engines(
    tree_r, tree_s, live_r, live_s, k, step, kernels_backend,
    oracle=None, backends=BACKENDS,
):
    if oracle is None:
        oracle = nlj_distances(tree_r, tree_s, k)
    dmax = oracle[-1]
    for backend in backends:
        with kernels_backend(backend):
            runner = JoinRunner(tree_r, tree_s)
            runs = {
                algorithm: runner.kdj(k, algorithm).results
                for algorithm in ("hs", "bkdj", "amkdj")
            }
            runs["sjsort"] = runner.kdj(k, "sjsort", dmax=dmax).results
            with runner.idj("amidj") as stream:
                runs["amidj"] = stream.next_batch(k)
            runs["parallel"] = parallel_kdj(
                tree_r, tree_s, k, JoinConfig(parallel=1)
            ).results
        for name, pairs in runs.items():
            assert_agrees(pairs, oracle, live_r, live_s, (step, backend, name))


def assert_same_entries(written, decoded):
    """``decoded`` holds ``written``'s nodes and entries, levels included.

    ``RTree.save`` renumbers pages densely, so directory entries are
    matched by position and followed, not compared by page id.
    """
    assert (decoded.size, decoded.height) == (written.size, written.height)
    pending = [(written.root, decoded.root)]
    while pending:
        a, b = pending.pop()
        assert a.level == b.level
        assert [(e.rect, e.level) for e in a.entries] == [
            (e.rect, e.level) for e in b.entries
        ]
        if a.is_leaf:
            assert a.entries == b.entries
            continue
        pending.extend(
            (written._get_node(x.ref), decoded._get_node(y.ref))
            for x, y in zip(a.entries, b.entries)
        )
    decoded.validate()


def check_round_trip(
    tree_r, tree_s, live_r, live_s, k, step, kernels_backend, oracle
):
    """Join the saved trees, as loaded copies and as file views.

    One backend suffices: the page codec is what these joins add to
    :func:`check_engines`, which already crosses the backends.
    """
    self_join = tree_s is tree_r
    with tempfile.TemporaryDirectory() as tmp:
        path_r = path_s = Path(tmp) / "r.rt"
        tree_r.save(path_r)
        if not self_join:
            path_s = Path(tmp) / "s.rt"
            tree_s.save(path_s)
        copy_r = RTree.load(path_r)
        copy_s = copy_r if self_join else RTree.load(path_s)
        with FileRTree.open(path_r) as view_r, FileRTree.open(path_s) as view_s:
            decoded = {
                "load": (copy_r, copy_s),
                "file": (view_r, view_r if self_join else view_s),
            }
            for kind, (got_r, got_s) in decoded.items():
                assert_same_entries(tree_r, got_r)
                assert_same_entries(tree_s, got_s)
                check_engines(
                    got_r, got_s, live_r, live_s, k, (step, kind),
                    kernels_backend, oracle=oracle, backends=BACKENDS[-1:],
                )


def run_write_steps(kernels_backend, seed, target, max_entries, scale=1.0):
    """Write ``target`` step by step; check every engine after each step."""
    rng = random.Random(seed)
    tree_r, live_r = build(rng, max_entries, scale)
    if target == "self":
        tree_s, live_s = tree_r, live_r
    else:
        tree_s, live_s = build(rng, max_entries, scale)
    written = {"r": (tree_r, live_r), "s": (tree_s, live_s), "self": (tree_r, live_r)}
    tree, live = written[target]
    for step in range(STEPS + 1):
        if step:
            write_step(tree, live, rng, scale)
        k = rng.randrange(1, 151)
        oracle = nlj_distances(tree_r, tree_s, k)
        check_engines(
            tree_r, tree_s, live_r, live_s, k, step, kernels_backend, oracle
        )
        check_round_trip(
            tree_r, tree_s, live_r, live_s, k, step, kernels_backend, oracle
        )
    tree_r.validate()
    tree_s.validate()


_write_cases = given(
    seed=st.integers(0, 2**32 - 1),
    target=st.sampled_from(["r", "s", "self"]),
    max_entries=st.integers(4, 16),
)


@seed_budget(tier1=5)
@_write_cases
@example(seed=0, target="self", max_entries=4)
def test_every_engine_agrees_with_nlj_after_each_write_step(
    kernels_backend, seed, target, max_entries
):
    run_write_steps(kernels_backend, seed, target, max_entries)


@pytest.mark.parametrize("scale", LIMIT_SCALES)
@seed_budget(tier1=3)
@_write_cases
def test_every_engine_agrees_with_nlj_at_the_float_limits(
    kernels_backend, scale, seed, target, max_entries
):
    # The same grid scaled where squared gaps underflow to 0.0 and where
    # they overflow to inf: engine answers, not just bounds, near both.
    run_write_steps(kernels_backend, seed, target, max_entries, scale)


@pytest.mark.parametrize("k", [1, 7])
def test_one_object_trees_after_writes(kernels_backend, k):
    # The smallest trees the steps can reach, one object each side; at
    # k = 7 the k exceeds |R|*|S| and every pair is the answer.
    rng = random.Random(11)
    tree_r = RTree(max_entries=4)
    tree_s = RTree(max_entries=4)
    live_r, live_s = {}, {}
    for oid in range(30):
        for tree, live in ((tree_r, live_r), (tree_s, live_s)):
            live[oid] = grid_rect(rng)
            tree.insert(live[oid], oid)
    for oid in range(1, 30):
        assert tree_r.delete(live_r.pop(oid), oid)
        assert tree_s.delete(live_s.pop(oid), oid)
    check_engines(tree_r, tree_s, live_r, live_s, k, 0, kernels_backend)
