"""Tests for the distance kernels and their two backends.

Two callers batch: HS (a partner against a node's whole child list,
through ``Instruments``) and the shared-memory engine (``block_within``
and ``cross_within``).  The backend is chosen by whether NumPy imports;
the ``kernels_backend`` fixture swaps it, so the pure-Python backend is
compared with the NumPy one directly.  Tests of the NumPy backend
itself skip when NumPy is not importable.
"""

import math
import random
import sys
from types import SimpleNamespace

import pytest

from repro import kernels
from repro.core.api import JoinConfig, JoinRunner
from repro.core.base import EngineOptions
from repro.core.stats import Instruments
from repro.datagen.tiger import synthetic_tiger
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.kernels import resolve_backend
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage.disk import SimulatedDisk

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
    """A struct-of-arrays coordinate block, as the arena slices them."""
    if backend.name == "numpy":
        from repro.kernels.numpy_backend import PackedRects

        return PackedRects(rects)
    return SimpleNamespace(
        xmin=[r.xmin for r in rects],
        ymin=[r.ymin for r in rects],
        xmax=[r.xmax for r in rects],
        ymax=[r.ymax for r in rects],
    )


def scalar_within(rect, rects, bound):
    out = []
    for i, other in enumerate(rects):
        real = min_distance(rect, other)
        if real <= bound:
            out.append((i, real))
    return out


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
        data = synthetic_tiger(n_streets=200, n_hydro=100, seed=1)
        runner = JoinRunner(RTree.bulk_load(data.streets), RTree.bulk_load(data.hydro))
        with kernels_backend(name) as backend:
            ctx = runner._context()
            try:
                assert ctx.instr.kernels is backend
                assert ctx.instr.kernels.name == name
            finally:
                ctx.close()


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
        for bound in (0.0, 150.0, 400.0, math.inf):
            want = scalar_within(anchor, others, bound)
            assert instr.mindist_within(anchor, others, bound) == want
            items = [SimpleNamespace(rect=o) for o in others]
            assert instr.mindist_within_items(anchor, items, bound) == want

    def test_small_lists_are_not_packed(self, kernels_backend):
        # Below ``min_window`` HS's batch runs the scalar loop: no kernel
        # call is counted.  From ``min_window`` on, the NumPy backend
        # takes it; the pure-Python backend never does.
        rng = random.Random(8)
        anchor = random_rects(rng, 1)[0]
        with kernels_backend("numpy") as backend:
            instr = make_instruments()
        n = backend.min_window
        for count, batches in ((1, 0), (n - 1, 0), (n, 1)):
            items = [SimpleNamespace(rect=r) for r in random_rects(rng, count)]
            instr.mindist_within_items(anchor, items, math.inf)
            assert instr.kernel_batches == batches, count
        with kernels_backend("python"):
            scalar = make_instruments()
        scalar.mindist_within_items(anchor, items, math.inf)
        assert scalar.kernel_batches == 0

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
            assert len(points) >= getattr(backend, "min_window", 0)
            packed = block(points, backend)
            assert backend.block_within(origin, packed, math.inf) == want_all
            assert backend.block_within(origin, packed, bound) == want_near
            rows, cols, dists, _, _ = backend.cross_within(
                block([origin], backend), packed, bound
            )
            assert list(zip(cols, dists)) == want_near and set(rows) == {0}
            if backend.batched:
                assert backend.mindist_packed(origin, packed) == [d for _, d in want_all]
                assert backend.mindist_packed_within(origin, packed, math.inf) == want_all
                assert backend.mindist_packed_within(origin, packed, bound) == want_near
            instr = make_instruments()
            items = [SimpleNamespace(rect=p) for p in points]
            assert instr.mindist_within_items(origin, items, bound) == want_near
            assert instr.mindist_within(origin, points, math.inf) == want_all
            assert instr.mindist_batch(origin, points) == [d for _, d in want_all]
            assert instr.kernel_batches == (3 if backend.batched else 0)


    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_pairs_at_the_bound_survive_the_prefilter(self, kernels_backend, name):
        # One gap 0.0, the other's square subnormal: the raw sqrt reads
        # 2.83574e-160 where the distance is 2.83572e-160.  And a square
        # that overflows to inf.  Both pairs lie exactly at the bound.
        origin = Rect.from_point(0.0, 0.0)
        filler = [Rect.from_point(5.0 + i, 5.0) for i in range(40)]
        with kernels_backend(name):
            instr = make_instruments()
            for gap in (2.835719304724109e-160, 1e155):
                rects = [Rect.from_point(0.0, gap), *filler]
                items = [SimpleNamespace(rect=r) for r in rects]
                want = scalar_within(origin, rects, gap)
                assert want[0] == (0, gap)
                assert instr.mindist_within_items(origin, items, gap) == want
                assert instr.mindist_within(origin, rects, gap) == want


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
        # HS's whole-child-list batches are the sequential engines' only
        # vector calls.
        tree_r, tree_s = small_trees
        with kernels_backend("numpy"):
            stats = JoinRunner(tree_r, tree_s).kdj(400, "hs").stats
        assert stats.extra.get("kernels.batches", 0) > 0
        assert stats.extra.get("kernels.batched_pairs", 0) >= stats.extra["kernels.batches"]

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

    @pytest.mark.usefixtures("needs_numpy")
    def test_batch_size_histogram_when_metrics_on(self, small_trees, kernels_backend):
        tree_r, tree_s = small_trees
        with kernels_backend("numpy"):
            stats = JoinRunner(
                tree_r, tree_s, JoinConfig(collect_metrics=True)
            ).kdj(200, "hs").stats
        # The metrics registry prefixes instrument names with "obs.".
        assert stats.extra.get("obs.kernel_batch_size.count", 0) > 0
        assert stats.extra.get("obs.kernel_batch_size.sum", 0) > 0


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
        assert batched.kernel_batches == 1
        scalar = make_instruments()
        for other in others:
            scalar.real_distance(anchor, other)
        assert batched.real_distance_computations == scalar.real_distance_computations
        # One bulk charge (n * c) and n sequential additions differ in the
        # last ulp; the engine hot paths bulk-charge on both backends, so
        # clock identity there is exact (see TestEngineEquivalence).
        assert math.isclose(batched.disk.cpu_time, scalar.disk.cpu_time, rel_tol=1e-9)

