"""Tests for the batched distance kernels.

Tests of the NumPy backend itself skip when NumPy is not importable; the
rest run under the pure-Python backend alone.
"""

import math
import random
from types import SimpleNamespace

import pytest

from repro.core.api import JoinConfig, JoinRunner
from repro.core.stats import Instruments
from repro.datagen.tiger import synthetic_tiger
from repro.geometry.distances import max_distance, min_distance
from repro.geometry.rect import Rect
from repro.kernels import maxdist_batch, mindist_batch, resolve_backend
from repro.kernels.flat import _FlatPack
from repro.kernels.python_backend import PythonKernels
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage.disk import SimulatedDisk


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


@pytest.fixture
def needs_numpy():
    pytest.importorskip("numpy")


def numpy_kernels():
    from repro.kernels.numpy_backend import NumpyKernels

    return NumpyKernels()


def packed_items(items):
    """Struct-of-arrays pack of ``(rect, key)`` pairs, in list order."""
    import numpy as np

    from repro.kernels.numpy_backend import PackedItems

    def column(values):
        return np.array(values, dtype=np.float64)

    return PackedItems.from_arrays(
        column([key for _, key in items]),
        column([rect.xmin for rect, _ in items]),
        column([rect.ymin for rect, _ in items]),
        column([rect.xmax for rect, _ in items]),
        column([rect.ymax for rect, _ in items]),
    )


def make_instruments(kernels=None) -> Instruments:
    disk = SimulatedDisk()
    dummy = RTree.bulk_load([(Rect(0, 0, 1, 1), 0)])
    acc = TreeAccessor(dummy, disk, 4096)
    return Instruments(disk, acc, acc, kernels=kernels)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------


class TestResolution:
    @pytest.mark.usefixtures("needs_numpy")
    def test_explicit_names(self):
        assert resolve_backend("python").name == "python"
        assert resolve_backend("numpy").name == "numpy"

    @pytest.mark.usefixtures("needs_numpy")
    def test_singletons(self):
        assert resolve_backend("python") is resolve_backend("python")
        assert resolve_backend("numpy") is resolve_backend("numpy")

    @pytest.mark.usefixtures("needs_numpy")
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert resolve_backend().name == "python"
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert resolve_backend().name == "numpy"

    @pytest.mark.usefixtures("needs_numpy")
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert resolve_backend("numpy").name == "numpy"

    @pytest.mark.usefixtures("needs_numpy")
    def test_default_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert resolve_backend().name == "numpy"  # numpy ships in the test env

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")

    def test_config_reaches_instruments(self):
        data = synthetic_tiger(n_streets=200, n_hydro=100, seed=1)
        runner = JoinRunner(
            RTree.bulk_load(data.streets),
            RTree.bulk_load(data.hydro),
            JoinConfig(kernels="python"),
        )
        ctx = runner._context()
        try:
            assert ctx.instr.kernels.name == "python"
        finally:
            ctx.close()


# ----------------------------------------------------------------------
# Bitwise backend equivalence (the contract everything else rests on)
# ----------------------------------------------------------------------


class TestBitwiseEquivalence:
    @pytest.mark.usefixtures("needs_numpy")
    def test_mindist_batch_1k_pairs(self):
        rng = random.Random(12345)
        anchors = random_rects(rng, 50)
        others = random_rects(rng, 1000)
        py, np_ = PythonKernels(), numpy_kernels()
        for anchor in anchors:
            a = py.mindist_batch(anchor, others)
            b = np_.mindist_batch(anchor, others)
            assert a == b  # exact float equality, not isclose
            assert all(isinstance(v, float) for v in b)

    @pytest.mark.usefixtures("needs_numpy")
    def test_maxdist_batch_1k_pairs(self):
        rng = random.Random(54321)
        anchor = random_rects(rng, 1)[0]
        others = random_rects(rng, 1000)
        assert PythonKernels().maxdist_batch(anchor, others) == numpy_kernels().maxdist_batch(anchor, others)

    def test_batches_match_scalar_functions(self):
        rng = random.Random(7)
        anchor = random_rects(rng, 1)[0]
        others = random_rects(rng, 200)
        assert mindist_batch(anchor, others) == [min_distance(anchor, o) for o in others]
        assert maxdist_batch(anchor, others) == [max_distance(anchor, o) for o in others]

    @pytest.mark.usefixtures("needs_numpy")
    def test_window_mindist_matches_scalar(self):
        rng = random.Random(99)
        rects = sorted(random_rects(rng, 64), key=lambda r: r.xmin)
        backend = numpy_kernels()
        packed = packed_items([(r, r.xmin) for r in rects])
        anchor = random_rects(rng, 1)[0]
        got = backend.window_mindist(packed, 5, 40, anchor)
        assert got == [min_distance(anchor, r) for r in rects[5:40]]

    @pytest.mark.usefixtures("needs_numpy")
    def test_window_stop_is_upper_bound(self):
        backend = numpy_kernels()
        packed = packed_items(
            [(Rect.from_point(float(i), 0.0), float(i)) for i in range(32)]
        )
        assert backend.window_stop(packed, 10.5) == 11
        assert backend.window_stop(packed, 10.0) == 11  # side="right": key == hi kept
        assert backend.window_stop(packed, -1.0) == 0
        assert backend.window_stop(packed, math.inf) == 32

    @pytest.mark.usefixtures("needs_numpy")
    def test_small_lists_are_not_packed(self):
        import numpy as np

        min_pack = numpy_kernels().min_pack
        coords = np.arange(64, dtype=np.float64)
        view = SimpleNamespace(
            exmin=coords, eymin=coords, exmax=coords + 1.0, eymax=coords + 1.0
        )
        for n in (1, min_pack - 1, min_pack):
            order = np.arange(n)[::-1]
            pack = _FlatPack(view, 0, n, order, coords[:n][order], min_pack)
            packed = pack.get()
            if n < min_pack:
                assert packed is None, n
            else:
                # Gathered in sorted-side order, straight from the view.
                assert packed.xmin.tolist() == coords[:n][::-1].tolist()
            assert pack.get() is packed  # memoized


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
    def test_identical_results_and_costs(self, small_trees, algorithm):
        tree_r, tree_s = small_trees
        runs = {}
        for backend in ("python", "numpy"):
            runner = JoinRunner(tree_r, tree_s, JoinConfig(kernels=backend))
            runs[backend] = runner.kdj(400, algorithm)
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
    def test_incremental_stream_identical(self, small_trees):
        tree_r, tree_s = small_trees
        batches = {}
        for backend in ("python", "numpy"):
            stream = JoinRunner(tree_r, tree_s, JoinConfig(kernels=backend)).idj("amidj")
            batches[backend] = stream.next_batch(300)
            stream.close()
        assert batches["python"] == batches["numpy"]

    @pytest.mark.usefixtures("needs_numpy")
    def test_numpy_backend_reports_batches(self, small_trees):
        tree_r, tree_s = small_trees
        stats = JoinRunner(tree_r, tree_s, JoinConfig(kernels="numpy")).kdj(400, "bkdj").stats
        assert stats.extra.get("kernels.batches", 0) > 0
        assert stats.extra.get("kernels.batched_pairs", 0) >= stats.extra["kernels.batches"]

    def test_python_backend_reports_no_batches(self, small_trees):
        tree_r, tree_s = small_trees
        stats = JoinRunner(tree_r, tree_s, JoinConfig(kernels="python")).kdj(400, "bkdj").stats
        assert "kernels.batches" not in stats.extra

    @pytest.mark.usefixtures("needs_numpy")
    def test_batch_size_histogram_when_metrics_on(self, small_trees):
        tree_r, tree_s = small_trees
        stats = JoinRunner(
            tree_r, tree_s, JoinConfig(kernels="numpy", collect_metrics=True)
        ).kdj(200, "bkdj").stats
        # The metrics registry prefixes instrument names with "obs.".
        assert stats.extra.get("obs.kernel_batch_size.count", 0) > 0
        assert stats.extra.get("obs.kernel_batch_size.sum", 0) > 0


# ----------------------------------------------------------------------
# Cost-model invariance of the counted batch entry point
# ----------------------------------------------------------------------


class TestCountedBatches:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_mindist_batch_counts_and_charges(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        instr = make_instruments(kernels=backend)
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
    def test_scalar_and_batch_charge_identically(self):
        rng = random.Random(4)
        anchor = random_rects(rng, 1)[0]
        others = random_rects(rng, 64)
        batched = make_instruments(kernels="numpy")
        batched.mindist_batch(anchor, others)
        scalar = make_instruments(kernels="python")
        for other in others:
            scalar.real_distance(anchor, other)
        assert batched.real_distance_computations == scalar.real_distance_computations
        # One bulk charge (n * c) and n sequential additions differ in the
        # last ulp; the engine hot paths bulk-charge on both backends, so
        # clock identity there is exact (see TestEngineEquivalence).
        assert math.isclose(batched.disk.cpu_time, scalar.disk.cpu_time, rel_tol=1e-9)
