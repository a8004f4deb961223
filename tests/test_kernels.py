"""Tests for the distance kernels and their two backends.

HS's child-list scan (a partner against a node's whole child list,
through ``Instruments``) is scalar on both backends; only the parallel
engine's block calls (``block_within`` and ``cross_within``) go through
a backend.  The backend is chosen by whether NumPy imports; the
``kernels_backend`` fixture swaps it, so the pure-Python backend is
compared with the NumPy one directly.  Tests of the NumPy backend
itself skip when NumPy is not importable.
"""

import math
import random
import sys
from types import SimpleNamespace

import pytest

from repro import all_nearest_neighbors, kernels, parallel_kdj, within_distance_join
from repro.core.api import JoinConfig, JoinRunner
from repro.core.base import EngineOptions
from repro.core.stats import Instruments
from repro.datagen.tiger import synthetic_tiger
from repro.geometry.distances import axis_distance, min_distance
from repro.geometry.rect import Rect
from repro.kernels import resolve_backend
from repro.kernels.window import ChildWindow, scan_all
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage.disk import SimulatedDisk

from tests.conftest import BACKENDS

#: Both backends; the fixture skips "numpy" where NumPy is missing.
ALL_BACKENDS = ["python", "numpy"]


def random_rects(rng: random.Random, n: int) -> list[Rect]:
    """A mix of proper rectangles, points, and degenerate segments."""
    out = []
    for _ in range(n):
        x, y = rng.uniform(-500, 500), rng.uniform(-500, 500)
        shape = rng.random()
        if shape < 0.25:
            out.append(Rect.from_point(x, y))
        elif shape < 0.4:
            out.append(Rect(x, y, x + rng.uniform(0, 30), y))  # horizontal segment
        elif shape < 0.55:
            out.append(Rect(x, y, x, y + rng.uniform(0, 30)))  # vertical segment
        else:
            out.append(Rect(x, y, x + rng.uniform(0, 30), y + rng.uniform(0, 30)))
    return out


def underflow_points(n: int = 40) -> list[Rect]:
    """Points ``(i * 1e-170, i * 1e-170)``: their gaps' squares underflow."""
    return [Rect.from_point(i * 1e-170, i * 1e-170) for i in range(1, n + 1)]


def block(rects: list[Rect], backend):
    """A struct-of-arrays coordinate block, as the arena packs a node's."""
    columns = (
        [r.xmin for r in rects],
        [r.ymin for r in rects],
        [r.xmax for r in rects],
        [r.ymax for r in rects],
    )
    if backend.name == "numpy":
        from repro.kernels.numpy_backend import PackedRects

        return PackedRects(*columns)
    return SimpleNamespace(
        xmin=columns[0], ymin=columns[1], xmax=columns[2], ymax=columns[3]
    )


def scalar_within(rect, rects, bound):
    out = []
    for i, other in enumerate(rects):
        real = min_distance(rect, other)
        if real <= bound:
            out.append((i, real))
    return out


#: A touching pair whose y gap is computed as ``-0.0 - 0.0``: R's top
#: edge is 0.0 and S's bottom edge is -0.0.
TOUCH_R = Rect(0, -1, 1, 0.0)
TOUCH_S = Rect(0.5, -0.0, 2, 1)


def touching_trees():
    """The touching pair (object 0 on both sides) among 40 far fillers."""
    items_r = [(TOUCH_R, 0)] + [
        (Rect.from_point(1000 + i, 1000 + 3 * i), 100 + i) for i in range(40)
    ]
    items_s = [(TOUCH_S, 0)] + [
        (Rect.from_point(-1000 - i, 2000 + 5 * i), 100 + i) for i in range(40)
    ]
    return RTree.bulk_load(items_r), RTree.bulk_load(items_s)


def plus_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) == 1.0


def make_instruments() -> Instruments:
    disk = SimulatedDisk()
    dummy = RTree.bulk_load([(Rect(0, 0, 1, 1), 0)])
    acc = TreeAccessor(dummy, disk, 4096)
    return Instruments(disk, acc, acc)


@pytest.fixture
def needs_numpy():
    pytest.importorskip("numpy")


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------


class TestResolution:
    @pytest.mark.usefixtures("needs_numpy")
    def test_default_prefers_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BACKEND", None)
        assert resolve_backend().name == "numpy"

    def test_python_when_numpy_is_hidden(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BACKEND", None)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import raises
        monkeypatch.delitem(sys.modules, "repro.kernels.numpy_backend", raising=False)
        assert resolve_backend().name == "python"

    def test_singletons(self):
        assert resolve_backend() is resolve_backend()

    def test_no_option_picks_the_backend(self):
        with pytest.raises(TypeError):
            JoinConfig(kernels="numpy")
        with pytest.raises(TypeError):
            EngineOptions(kernels="python")
        with pytest.raises(TypeError):
            resolve_backend("python")

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_backend_reaches_instruments(self, kernels_backend, name):
        # The backend's calls reach a run's instruments through the
        # parallel engine only; HS's child-list scan is scalar on both
        # backends, so it counts no kernel batch and holds no backend.
        data = synthetic_tiger(n_streets=200, n_hydro=100, seed=1)
        tree_r, tree_s = RTree.bulk_load(data.streets), RTree.bulk_load(data.hydro)
        with kernels_backend(name) as backend:
            assert resolve_backend() is backend
            ctx = JoinRunner(tree_r, tree_s)._context()
            try:
                assert not hasattr(ctx.instr, "kernels")
            finally:
                ctx.close()
            hs = JoinRunner(tree_r, tree_s).kdj(100, "hs").stats
            parallel = parallel_kdj(tree_r, tree_s, 100, JoinConfig(parallel=1)).stats
        assert "kernels.batches" not in hs.extra
        assert parallel.extra["kernels.batches"] > 0


# ----------------------------------------------------------------------
# Bitwise backend equivalence (the contract everything else rests on)
# ----------------------------------------------------------------------


class TestBitwiseEquivalence:
    @pytest.mark.usefixtures("needs_numpy")
    def test_mindist_batch_1k_pairs(self, kernels_backend):
        rng = random.Random(12345)
        anchors = random_rects(rng, 50)
        others = random_rects(rng, 1000)
        runs = {}
        for name in ALL_BACKENDS:
            with kernels_backend(name):
                instr = make_instruments()
                runs[name] = [instr.mindist_batch(anchor, others) for anchor in anchors]
        assert runs["python"] == runs["numpy"]  # exact float equality
        assert all(isinstance(v, float) for batch in runs["numpy"] for v in batch)

    def test_batches_match_scalar_functions(self):
        rng = random.Random(7)
        anchor = random_rects(rng, 1)[0]
        others = random_rects(rng, 200)
        instr = make_instruments()
        assert instr.mindist_batch(anchor, others) == [
            min_distance(anchor, o) for o in others
        ]
        items = [SimpleNamespace(rect=o) for o in others]
        for bound in (0.0, 150.0, 400.0, math.inf):
            want = scalar_within(anchor, others, bound)
            assert instr.mindist_within(anchor, others, bound) == want
            assert instr.mindist_within_items(anchor, items, bound) == want
            # Tagged: the sorted list is built on the first call and
            # reused on the second.
            for _ in range(2):
                assert instr.mindist_within_items(anchor, items, bound, "t") == want

    def test_small_lists_are_not_packed(self, kernels_backend):
        # No list is packed for a backend, whatever its length: HS's
        # scan is scalar on both backends and counts no kernel batch.
        rng = random.Random(8)
        anchor = random_rects(rng, 1)[0]
        for name in BACKENDS:
            with kernels_backend(name):
                instr = make_instruments()
                for count in (1, 31, 32, 100):
                    rects = random_rects(rng, count)
                    items = [SimpleNamespace(rect=r) for r in rects]
                    for bound in (0.0, 300.0, math.inf):
                        instr.mindist_within_items(anchor, items, bound, tag=count)
                        instr.mindist_within(anchor, rects, bound)
                    instr.mindist_batch(anchor, rects)
            assert instr.kernel_batches == instr.kernel_batched_pairs == 0, name

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_touching_pair_reads_plus_zero(self, kernels_backend, name):
        # The builtin ``max`` keeps the first of equal operands, so a clip
        # written ``max(gap1, gap2, 0.0)`` kept the ``-0.0`` gap.
        a, b = TOUCH_R, TOUCH_S
        assert math.copysign(1.0, b.ymin - a.ymax) == -1.0
        got = {
            "min_distance": [min_distance(a, b), min_distance(b, a)],
            "Rect.min_dist": [a.min_dist(b), b.min_dist(a)],
            "axis_distance": [axis_distance(a, b, 1), axis_distance(b, a, 1)],
            "Rect.axis_dist": [a.axis_dist(b, 1), b.axis_dist(a, 1)],
        }
        with kernels_backend(name) as backend:
            block_a, block_b = block([a], backend), block([b], backend)
            got["block_within"] = [
                d for _, d in backend.block_within(a, block_b, 0.0)
            ] + [d for _, d in backend.block_within(b, block_a, 0.0)]
            got["cross_within"] = (
                backend.cross_within(block_a, block_b, 0.0)[2]
                + backend.cross_within(block_b, block_a, 0.0)[2]
            )
            instr = make_instruments()
            got["scan"] = [
                d
                for bound in (0.0, math.inf)
                for partner, child in ((a, b), (b, a))
                for _, d in instr.mindist_within_items(
                    partner, [SimpleNamespace(rect=child)], bound, tag=(bound, partner)
                )
            ]
            sweep = within_distance_join(*touching_trees(), 0.0).results
            got["sweep"] = [p.distance for p in sweep]
        for where, distances in got.items():
            assert len(distances) >= 2 or where == "sweep", where
            assert distances and all(plus_zero(d) for d in distances), (where, distances)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_block_calls_match_scalar(self, kernels_backend, name):
        rng = random.Random(21)
        rects_r = random_rects(rng, 40)
        rects_s = random_rects(rng, 60)
        with kernels_backend(name) as backend:
            pr, ps = block(rects_r, backend), block(rects_s, backend)
            for bound in (0.0, 60.0, 300.0, math.inf):
                for rect in rects_r[:5]:
                    assert backend.block_within(rect, ps, bound) == scalar_within(
                        rect, rects_s, bound
                    )
                rows, cols, dists, in_x, in_y = backend.cross_within(pr, ps, bound)
                want = [
                    (i, j, min_distance(a, b))
                    for i, a in enumerate(rects_r)
                    for j, b in enumerate(rects_s)
                    if min_distance(a, b) <= bound
                ]
                assert list(zip(rows, cols, dists)) == want
                assert in_x == sum(
                    a.axis_dist(b, 0) <= bound for a in rects_r for b in rects_s
                )
                assert in_y == sum(
                    a.axis_dist(b, 1) <= bound for a in rects_r for b in rects_s
                )


# ----------------------------------------------------------------------
# Gaps whose squares underflow: every surviving call, both backends
# ----------------------------------------------------------------------


class TestUnderflow:
    """Gaps below about 1e-162 square to 0.0; the distance must not."""

    def test_scalar_distances(self):
        origin = Rect.from_point(0.0, 0.0)
        for i, point in enumerate(underflow_points(), start=1):
            assert min_distance(origin, point) == i * 1e-170
            assert origin.min_dist(point) == i * 1e-170

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_kernel_call(self, kernels_backend, name):
        origin = Rect.from_point(0.0, 0.0)
        points = underflow_points()
        bound = 20.5e-170
        want_all = [(i, (i + 1) * 1e-170) for i in range(len(points))]
        want_near = want_all[:20]
        with kernels_backend(name) as backend:
            packed = block(points, backend)
            assert backend.block_within(origin, packed, math.inf) == want_all
            assert backend.block_within(origin, packed, bound) == want_near
            rows, cols, dists, _, _ = backend.cross_within(
                block([origin], backend), packed, bound
            )
            assert list(zip(cols, dists)) == want_near and set(rows) == {0}
            window = ChildWindow(points)
            assert window.within(origin, math.inf) == want_all
            assert window.within(origin, bound) == want_near
            assert scan_all(origin, points) == want_all
            instr = make_instruments()
            items = [SimpleNamespace(rect=p) for p in points]
            assert instr.mindist_within_items(origin, items, bound) == want_near
            assert instr.mindist_within_items(origin, items, bound, tag=1) == want_near
            assert instr.mindist_within(origin, points, math.inf) == want_all
            assert instr.mindist_batch(origin, points) == [d for _, d in want_all]
            assert instr.kernel_batches == 0


    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_pairs_at_the_bound_survive_the_prefilter(self, kernels_backend, name):
        # One gap 0.0, the other's square subnormal: the raw sqrt reads
        # 2.83574e-160 where the distance is 2.83572e-160.  And a square
        # that overflows to inf.  Both pairs lie exactly at the bound.
        # Last, a pair whose distance reads *below* its x gap: 2.6e-162
        # squares to one subnormal step, whose root is 2.2227e-162, so a
        # cut at the bound itself would drop a pair within it.
        origin = Rect.from_point(0.0, 0.0)
        filler = [Rect.from_point(5.0 + i, 5.0) for i in range(40)]
        below_gap = Rect.from_point(2.6e-162, 1e-170)
        cases = [
            (Rect.from_point(0.0, 2.835719304724109e-160), 2.835719304724109e-160),
            (Rect.from_point(0.0, 1e155), 1e155),
            (below_gap, min_distance(origin, below_gap)),
        ]
        assert cases[2][1] < below_gap.xmin
        with kernels_backend(name):
            instr = make_instruments()
            for tag, (near, bound) in enumerate(cases):
                rects = [near, *filler]
                items = [SimpleNamespace(rect=r) for r in rects]
                want = scalar_within(origin, rects, bound)
                assert want[0] == (0, bound)
                assert ChildWindow(rects).within(origin, bound) == want
                assert instr.mindist_within_items(origin, items, bound) == want
                assert instr.mindist_within_items(origin, items, bound, tag) == want
                assert instr.mindist_within(origin, rects, bound) == want


# ----------------------------------------------------------------------
# Engine-level equivalence and counters
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_trees():
    data = synthetic_tiger(n_streets=2500, n_hydro=1000, seed=42)
    return RTree.bulk_load(data.streets), RTree.bulk_load(data.hydro)


class TestEngineEquivalence:
    @pytest.mark.usefixtures("needs_numpy")
    @pytest.mark.parametrize("algorithm", ["hs", "bkdj", "amkdj", "sjsort"])
    def test_identical_results_and_costs(self, small_trees, kernels_backend, algorithm):
        tree_r, tree_s = small_trees
        runs = {}
        for backend in ALL_BACKENDS:
            with kernels_backend(backend):
                runs[backend] = JoinRunner(tree_r, tree_s).kdj(400, algorithm)
        py, np_ = runs["python"], runs["numpy"]
        assert py.results == np_.results  # byte-identical stream
        for field in (
            "real_distance_computations",
            "axis_distance_computations",
            "queue_insertions",
            "distance_queue_insertions",
            "node_accesses",
            "node_accesses_unbuffered",
            "response_time",
        ):
            assert getattr(py.stats, field) == getattr(np_.stats, field), field

    @pytest.mark.usefixtures("needs_numpy")
    def test_incremental_stream_identical(self, small_trees, kernels_backend):
        tree_r, tree_s = small_trees
        batches = {}
        for backend in ALL_BACKENDS:
            with kernels_backend(backend):
                stream = JoinRunner(tree_r, tree_s).idj("amidj")
                batches[backend] = stream.next_batch(300)
                stream.close()
        assert batches["python"] == batches["numpy"]

    @pytest.mark.usefixtures("needs_numpy")
    def test_numpy_backend_reports_batches(self, small_trees, kernels_backend):
        # The parallel engine's block calls are the only vector calls:
        # HS's child-list scan is scalar on the NumPy backend too.
        tree_r, tree_s = small_trees
        with kernels_backend("numpy"):
            hs = JoinRunner(tree_r, tree_s).kdj(400, "hs").stats
            with JoinRunner(tree_r, tree_s).idj("hs") as stream:
                stream.next_batch(100)
                hs_idj = stream.stats()
            parallel = parallel_kdj(tree_r, tree_s, 400, JoinConfig(parallel=1)).stats
        assert "kernels.batches" not in hs.extra
        assert "kernels.batches" not in hs_idj.extra
        assert parallel.extra["kernels.batches"] > 0
        assert parallel.extra["kernels.batched_pairs"] >= parallel.extra["kernels.batches"]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_touching_pair_is_plus_zero_in_every_engine(self, kernels_backend, name):
        # Every engine returns the same bits for a pair whose gap is
        # computed as -0.0: +0.0, whichever backend runs.
        tree_r, tree_s = touching_trees()
        got = {}
        with kernels_backend(name):
            for algorithm in ("hs", "bkdj", "amkdj", "sjsort", "nlj"):
                dmax = 0.0 if algorithm == "sjsort" else None
                got[algorithm] = JoinRunner(tree_r, tree_s).kdj(1, algorithm, dmax).results
            got["parallel"] = parallel_kdj(tree_r, tree_s, 1, JoinConfig(parallel=1)).results
            for algorithm in ("hs", "amidj"):
                with JoinRunner(tree_r, tree_s).idj(algorithm) as stream:
                    got[f"idj-{algorithm}"] = stream.next_batch(1)
            got["ann"] = all_nearest_neighbors(tree_r, tree_s).results[:1]
        for run, pairs in got.items():
            assert [(p.ref_r, p.ref_s) for p in pairs] == [(0, 0)], run
            assert plus_zero(pairs[0].distance), (run, pairs[0].distance)

    def test_python_backend_reports_no_batches(self, small_trees, kernels_backend):
        tree_r, tree_s = small_trees
        for algorithm in ("hs", "bkdj"):
            with kernels_backend("python"):
                stats = JoinRunner(tree_r, tree_s).kdj(400, algorithm).stats
            assert "kernels.batches" not in stats.extra, algorithm

    def test_sweeping_engines_report_no_batches(self, small_trees):
        # The plane sweep is scalar on every backend.
        from repro import within_distance_join

        tree_r, tree_s = small_trees
        runner = JoinRunner(tree_r, tree_s)
        dmax = runner.true_dmax(400)
        runs = {
            algorithm: runner.kdj(400, algorithm).stats
            for algorithm in ("bkdj", "amkdj")
        }
        runs["sjsort"] = runner.kdj(400, "sjsort", dmax).stats
        runs["within"] = within_distance_join(tree_r, tree_s, dmax).stats
        with runner.idj("amidj") as stream:
            stream.next_batch(400)
            runs["amidj"] = stream.stats()
        for name, stats in runs.items():
            assert "kernels.batches" not in stats.extra, name

    def test_batch_size_histogram_when_metrics_on(self, small_trees, kernels_backend):
        # HS makes no kernel batch, so with metrics on it observes no
        # batch-size histogram, on either backend.
        tree_r, tree_s = small_trees
        for backend in BACKENDS:
            with kernels_backend(backend):
                stats = JoinRunner(
                    tree_r, tree_s, JoinConfig(collect_metrics=True)
                ).kdj(200, "hs").stats
            # The metrics registry prefixes instrument names with "obs.".
            assert "obs.result_distance.count" in stats.extra, backend
            assert not any("kernel_batch" in key for key in stats.extra), backend


# ----------------------------------------------------------------------
# Cost-model invariance of the counted batch entry point
# ----------------------------------------------------------------------


class TestCountedBatches:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_mindist_batch_counts_and_charges(self, kernels_backend, backend):
        with kernels_backend(backend):
            instr = make_instruments()
        rng = random.Random(3)
        anchor = random_rects(rng, 1)[0]
        others = random_rects(rng, 100)
        before = instr.disk.cpu_time
        instr.mindist_batch(anchor, others)
        assert instr.real_distance_computations == 100
        charged = instr.disk.cpu_time - before
        assert math.isclose(
            charged, 100 * instr.disk.cost_model.cpu_real_distance, rel_tol=1e-12
        )

    @pytest.mark.usefixtures("needs_numpy")
    def test_scalar_and_batch_charge_identically(self, kernels_backend):
        rng = random.Random(4)
        anchor = random_rects(rng, 1)[0]
        others = random_rects(rng, 64)
        with kernels_backend("numpy"):
            batched = make_instruments()
        batched.mindist_batch(anchor, others)
        assert batched.kernel_batches == 0  # one counted call, no vector call
        scalar = make_instruments()
        for other in others:
            scalar.real_distance(anchor, other)
        assert batched.real_distance_computations == scalar.real_distance_computations
        # One bulk charge (n * c) and n sequential additions differ in the
        # last ulp; the engine hot paths bulk-charge on both backends, so
        # clock identity there is exact (see TestEngineEquivalence).
        assert math.isclose(batched.disk.cpu_time, scalar.disk.cpu_time, rel_tol=1e-9)

