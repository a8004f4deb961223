"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import settings

from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.kernels.arena import SharedTreeView, tree_image
from repro.rtree.tree import RTree


try:  # the NumPy backend runs only where NumPy imports
    import numpy  # noqa: F401
except ImportError:
    #: The kernels backends this interpreter can run.
    BACKENDS: tuple[str, ...] = ("python",)
else:
    BACKENDS = ("python", "numpy")

#: ``--hypothesis-profile fuzz``: the seeded fuzzers
#: (``test_write_differential.py``, ``test_pruning_bounds.py``,
#: ``test_rstar.py``, ``test_planning_differential.py``) at the seed
#: budget of their own CI step.
#: Other suites set their own counts.
settings.register_profile("fuzz", max_examples=150, deadline=None)


def seed_budget(tier1: int) -> settings:
    """Settings for a seeded fuzzer.

    ``tier1`` derandomized examples in a plain run, so tier-1 is
    repeatable; under ``--hypothesis-profile fuzz`` the profile's larger,
    randomized budget.
    """
    if settings.get_current_profile_name() == "fuzz":
        return settings(deadline=None)
    return settings(max_examples=tier1, derandomize=True, deadline=None)


def brute_force_distances(
    items_r: list[tuple[Rect, int]], items_s: list[tuple[Rect, int]], k: int
) -> list[float]:
    """The k smallest pair distances, by exhaustive enumeration."""
    distances = sorted(
        min_distance(a, b)
        for (a, _), (b, _) in itertools.product(items_r, items_s)
    )
    return distances[:k]


def brute_force_within(
    items_r: list[tuple[Rect, int]],
    items_s: list[tuple[Rect, int]],
    dmax: float,
) -> set[tuple[int, int]]:
    """All pairs of object ids within ``dmax``."""
    return {
        (i, j)
        for (a, i), (b, j) in itertools.product(items_r, items_s)
        if min_distance(a, b) <= dmax
    }


def random_rects(
    n: int, seed: int, span: float = 1000.0, max_side: float = 30.0
) -> list[tuple[Rect, int]]:
    """Reproducible random rectangles for oracle comparisons."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x = rng.uniform(0, span)
        y = rng.uniform(0, span)
        w = rng.uniform(0, max_side)
        h = rng.uniform(0, max_side)
        items.append((Rect(x, y, x + w, y + h), i))
    return items


def assert_distances_close(got: list[float], expected: list[float]) -> None:
    assert len(got) == len(expected), f"{len(got)} results, expected {len(expected)}"
    for i, (a, b) in enumerate(zip(got, expected)):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9), (i, a, b)


def fingerprint(pairs, stats) -> tuple[str, str, float]:
    """``(stream sha256, row sha256, response_time)`` of one join run.

    The row is ``stats.as_row()`` without ``wall_time``: every Table-2
    counter, and the simulated clock as an exact float.
    """
    stream = [(p.distance, p.ref_r, p.ref_s) for p in pairs]
    row = stats.as_row()
    del row["wall_time"]
    return (
        hashlib.sha256(repr(stream).encode()).hexdigest(),
        hashlib.sha256(repr(sorted(row.items())).encode()).hexdigest(),
        stats.response_time,
    )


def assert_image_describes(tree):
    """The tree's memoized image is a full build of its current nodes:
    every live page's row holds its level, MBR and entries, every other
    row is empty, and every row's ``cnt`` is its subtree's object count."""
    layout, buf = tree_image(tree)
    assert (layout.rows, layout.root, layout.size) == (
        tree.store.id_bound, tree.root_id, tree.size
    )
    view = SharedTreeView(layout, memoryview(buf).toreadonly())
    try:
        counts = {}
        for node in sorted(tree.iter_nodes(), key=lambda node: node.level):
            row = node.page_id
            lo, hi = view.span(row)
            assert (int(view.lvl[row]), hi - lo) == (node.level, len(node.entries))
            if node.entries:  # an empty root has no MBR
                assert view.node_rect(row) == node.mbr()
            assert [
                (view.entry_rect(j), int(view.eref[j])) for j in range(lo, hi)
            ] == [(entry.rect, entry.ref) for entry in node.entries]
            counts[row] = (
                len(node.entries) if node.is_leaf
                else sum(counts[entry.ref] for entry in node.entries)
            )
            assert int(view.cnt[row]) == counts[row]
        for row in set(range(layout.rows)) - set(counts):
            assert view.span(row) == (0, 0)
    finally:
        view.release()


@pytest.fixture
def image_builds(monkeypatch):
    """The tree of every flat image built, in order (each is a full build)."""
    from repro.kernels import arena

    calls = []
    real = arena._build_image

    def counting(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(arena, "_build_image", counting)
    return calls


@pytest.fixture(scope="session")
def kernels_backend():
    """``with kernels_backend(name): ...`` runs the block on one backend.

    Swaps the backend :func:`repro.kernels.resolve_backend` caches, so
    the pure-Python backend runs even where NumPy is installed; for
    ``"numpy"`` the test skips where NumPy is not importable.  Yields
    the backend.
    """
    from repro import kernels
    from repro.kernels.python_backend import PythonKernels

    @contextlib.contextmanager
    def use(name):
        if name == "numpy":
            backend = pytest.importorskip("repro.kernels.numpy_backend").NumpyKernels()
        else:
            backend = PythonKernels()
        saved = kernels._BACKEND
        kernels._BACKEND = backend
        try:
            yield backend
        finally:
            kernels._BACKEND = saved

    return use


@pytest.fixture(scope="session")
def small_r() -> list[tuple[Rect, int]]:
    return random_rects(120, seed=11)


@pytest.fixture(scope="session")
def small_s() -> list[tuple[Rect, int]]:
    return random_rects(90, seed=22)


@pytest.fixture(scope="session")
def small_trees(small_r, small_s) -> tuple[RTree, RTree]:
    return (
        RTree.bulk_load(small_r, max_entries=8),
        RTree.bulk_load(small_s, max_entries=8),
    )
