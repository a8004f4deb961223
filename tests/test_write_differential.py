"""Write-then-join differential test: every engine agrees with ``nlj``.

Seeded write steps insert, move and delete objects of R, of S, or of one
tree joined with itself.  After each step HS, B-KDJ, AM-KDJ, SJ-SORT
(given the oracle's k-th distance as ``dmax``), an AM-IDJ pull and a
``shm-serial`` AM-KDJ run under both kernel backends and must agree with
the brute-force oracle, tie-aware: the same distance multiset, and every
returned pair a distinct pair of live objects at its reported distance.
The joins between steps read patched flat images, memoized child lists
and open-stream staleness; this is the net under all three.

Tier-1 runs a few derandomized seeds; ``--hypothesis-profile fuzz``
runs the larger budget of the CI fuzz step.  A seed that ever fails
becomes an ``@example`` here.
"""

import random

import pytest
from hypothesis import example, given, strategies as st

from repro import JoinConfig, JoinRunner, Rect, RTree
from repro.geometry.distances import min_distance

from tests.conftest import BACKENDS, seed_budget

STEPS = 6


def grid_rect(rng):
    """A small rect on a coarse grid: exact distance ties are common."""
    x, y = rng.randrange(0, 80) * 2.5, rng.randrange(0, 80) * 2.5
    w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
    return Rect(x, y, x + w, y + h)


def build(rng, max_entries):
    """A tree of 20-90 objects, bulk-loaded or built by inserts."""
    live = {oid: grid_rect(rng) for oid in range(rng.randrange(20, 90))}
    items = [(rect, oid) for oid, rect in live.items()]
    if rng.random() < 0.5:
        return RTree.bulk_load(items, max_entries=max_entries), live
    tree = RTree(max_entries=max_entries)
    tree.insert_all(items)
    return tree, live


def write_step(tree, live, rng):
    """1-12 inserts, moves and deletes; the tree keeps one object."""
    for _ in range(rng.randrange(1, 13)):
        op = rng.random()
        if op < 0.35:
            oid = max(live) + 1
            live[oid] = grid_rect(rng)
            tree.insert(live[oid], oid)
            continue
        if len(live) < 2:
            continue
        oid = rng.choice(sorted(live))
        assert tree.delete(live.pop(oid), oid)
        if op < 0.75:
            live[oid] = grid_rect(rng)
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


def check_engines(tree_r, tree_s, live_r, live_s, k, step, kernels_backend):
    oracle = sorted(
        pair.distance for pair in JoinRunner(tree_r, tree_s).kdj(k, "nlj").results
    )
    dmax = oracle[-1]
    for backend in BACKENDS:
        with kernels_backend(backend):
            runner = JoinRunner(tree_r, tree_s)
            runs = {
                algorithm: runner.kdj(k, algorithm).results
                for algorithm in ("hs", "bkdj", "amkdj")
            }
            runs["sjsort"] = runner.kdj(k, "sjsort", dmax=dmax).results
            with runner.idj("amidj") as stream:
                runs["amidj"] = stream.next_batch(k)
            shm = JoinRunner(
                tree_r, tree_s, JoinConfig(parallel=2, parallel_mode="shm-serial")
            )
            runs["shm-serial"] = shm.kdj(k, "amkdj").results
        for name, pairs in runs.items():
            assert_agrees(pairs, oracle, live_r, live_s, (step, backend, name))


@seed_budget(tier1=5)
@given(
    seed=st.integers(0, 2**32 - 1),
    target=st.sampled_from(["r", "s", "self"]),
    max_entries=st.integers(4, 16),
)
@example(seed=0, target="self", max_entries=4)
def test_every_engine_agrees_with_nlj_after_each_write_step(
    kernels_backend, seed, target, max_entries
):
    rng = random.Random(seed)
    tree_r, live_r = build(rng, max_entries)
    if target == "self":
        tree_s, live_s = tree_r, live_r
    else:
        tree_s, live_s = build(rng, max_entries)
    written = {"r": (tree_r, live_r), "s": (tree_s, live_s), "self": (tree_r, live_r)}
    tree, live = written[target]
    for step in range(STEPS + 1):
        if step:
            write_step(tree, live, rng)
        k = rng.randrange(1, 151)
        check_engines(tree_r, tree_s, live_r, live_s, k, step, kernels_backend)
    tree_r.validate()
    tree_s.validate()


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
