"""Bulk-pop batched expansion is invisible in results and counters.

The flat hot path and the batched expansion loop are pure mechanics: at
any batch width (adaptive or fixed), with or without the arena-backed
flat path, every exact engine must produce the byte-identical result
stream and the same paper counters as single-pop execution.  The
checkpoint cases pin the drain-at-barrier property: a checkpoint taken
while batching was active resumes into the identical remaining stream.
"""

import random

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree, within_distance_join
from repro.kernels.flat import BatchController, FlatHotPath, resolve_batch_size
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.errors import JoinInterrupted
from repro.resilience.recovery import load_checkpoint

EXACT_KDJ = ["hs", "bkdj", "amkdj"]
IDJ = ["amidj", "hs"]

# Baseline: no flat path, strict single pops — the code path every
# previous release ran.
BASELINE = dict(flat=False, batch_size=1)
VARIANTS = {
    "adaptive": dict(batch_size=0),
    "fixed16": dict(batch_size=16),
    "fixed3": dict(batch_size=3),
    "noflat-adaptive": dict(flat=False, batch_size=0),
}


def random_points(n: int, seed: int, span: float = 1000.0):
    rng = random.Random(seed)
    return [
        (Rect.from_point(rng.uniform(0, span), rng.uniform(0, span)), i)
        for i in range(n)
    ]


@pytest.fixture(scope="module", params=[5, 17])
def seeded_trees(request):
    seed = request.param
    return (
        RTree.bulk_load(random_points(380, seed=seed), max_entries=16),
        RTree.bulk_load(random_points(300, seed=seed + 100), max_entries=16),
    )


@pytest.fixture(autouse=True)
def clear_shutdown_latch():
    CheckpointManager.reset_shutdown()
    yield
    CheckpointManager.reset_shutdown()


def run(trees, algorithm, k=60, **cfg):
    tree_r, tree_s = trees
    return JoinRunner(tree_r, tree_s, JoinConfig(**cfg)).kdj(k, algorithm)


def stream(result):
    return [(p.distance, p.ref_r, p.ref_s) for p in result.results]


def assert_rows_match(ref_row, row, *, skip=("wall_time",)):
    assert set(ref_row) == set(row)
    for key, expected in ref_row.items():
        if key in skip:
            continue
        if isinstance(expected, float):
            # Bulk accounting reorders float charge summation; every
            # integer counter must be bit-for-bit identical.
            assert row[key] == pytest.approx(expected, rel=1e-9), key
        else:
            assert row[key] == expected, key


# ----------------------------------------------------------------------
# k-distance joins: every width, every flat setting, same everything
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("algorithm", EXACT_KDJ)
def test_kdj_batched_equals_single_pop(seeded_trees, algorithm, variant):
    ref = run(seeded_trees, algorithm, **BASELINE)
    got = run(seeded_trees, algorithm, **VARIANTS[variant])
    assert stream(got) == stream(ref)
    assert_rows_match(ref.stats.as_row(), got.stats.as_row())


@pytest.mark.parametrize("algorithm", IDJ)
def test_idj_batched_equals_single_pop(seeded_trees, algorithm):
    tree_r, tree_s = seeded_trees
    with JoinRunner(tree_r, tree_s, JoinConfig(**BASELINE)).idj(algorithm) as ref:
        reference = [
            (p.distance, p.ref_r, p.ref_s) for p in ref.next_batch(250)
        ]
    for variant in sorted(VARIANTS):
        config = JoinConfig(**VARIANTS[variant])
        with JoinRunner(tree_r, tree_s, config).idj(algorithm) as got:
            batched = [
                (p.distance, p.ref_r, p.ref_s) for p in got.next_batch(250)
            ]
        assert batched == reference, variant


def test_env_batch_matches_explicit(seeded_trees, monkeypatch):
    explicit = run(seeded_trees, "bkdj", batch_size=16)
    monkeypatch.setenv("REPRO_BATCH", "16")
    from_env = run(seeded_trees, "bkdj")
    assert stream(from_env) == stream(explicit)
    assert_rows_match(explicit.stats.as_row(), from_env.stats.as_row())


# ----------------------------------------------------------------------
# SJ-SORT and the within-distance join: flat body == object-graph body
# ----------------------------------------------------------------------

#: The flat body needs a batched backend; the suite also runs under
#: ``REPRO_KERNELS=python``.
SWEEP_FLAT = dict(kernels="numpy")
SWEEP_OBJECT_GRAPH = dict(kernels="numpy", flat=False)


@pytest.fixture(scope="module")
def touching_trees():
    """Rects on a coarse grid: hundreds of pairs touch or overlap."""
    rng = random.Random(31)
    sides = []
    for n in (380, 300):
        items = []
        for i in range(n):
            x, y = rng.randrange(0, 60) * 2.5, rng.randrange(0, 60) * 2.5
            w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
            items.append((Rect(x, y, x + w, y + h), i))
        sides.append(RTree.bulk_load(items, max_entries=16))
    return tuple(sides)


@pytest.fixture
def flat_served(monkeypatch):
    """Node sides the flat body sorted (``FlatHotPath.sorted_side`` hits)."""
    pytest.importorskip("numpy")
    served = []
    real = FlatHotPath.sorted_side

    def counting(self, *args):
        side = real(self, *args)
        if side is not None:
            served.append(side)
        return side

    monkeypatch.setattr(FlatHotPath, "sorted_side", counting)
    return served


def assert_same_run(got, ref):
    """Same stream, same counters, and the simulated clock bit for bit."""
    assert stream(got) == stream(ref)
    want, have = ref.stats.as_row(), got.stats.as_row()
    del want["wall_time"], have["wall_time"]
    assert have == want
    assert (got.stats.io_time, got.stats.cpu_time) == (ref.stats.io_time, ref.stats.cpu_time)


def sjsort_flat_and_object_graph(trees, k, dmax, served):
    ref = JoinRunner(*trees, JoinConfig(**SWEEP_OBJECT_GRAPH)).kdj(k, "sjsort", dmax)
    assert not served
    got = JoinRunner(*trees, JoinConfig(**SWEEP_FLAT)).kdj(k, "sjsort", dmax)
    assert served, "SJ-SORT did not sweep on the flat body"
    return got, ref


def test_sjsort_flat_equals_object_graph_at_oracle_dmax(seeded_trees, flat_served):
    dmax = JoinRunner(*seeded_trees).true_dmax(60)
    assert dmax > 0.0
    flat_served.clear()
    got, ref = sjsort_flat_and_object_graph(seeded_trees, 60, dmax, flat_served)
    assert len(got) == 60
    assert_same_run(got, ref)


def test_sjsort_flat_equals_object_graph_over_touching_pairs(
    touching_trees, flat_served
):
    got, ref = sjsort_flat_and_object_graph(touching_trees, 10_000, 0.0, flat_served)
    assert len(got) > 100
    assert {p.distance for p in got.results} == {0.0}
    assert_same_run(got, ref)


@pytest.mark.parametrize("dmax", [0.0, 6.0])
def test_within_join_flat_equals_object_graph(touching_trees, flat_served, dmax):
    ref = within_distance_join(*touching_trees, dmax, JoinConfig(**SWEEP_OBJECT_GRAPH))
    assert not flat_served
    got = within_distance_join(*touching_trees, dmax, JoinConfig(**SWEEP_FLAT))
    assert flat_served, "the within-join did not sweep on the flat body"
    assert len(got) > 100
    assert_same_run(got, ref)


# ----------------------------------------------------------------------
# Checkpoints taken while batching resume into the identical stream
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", EXACT_KDJ)
def test_periodic_checkpoint_resume_mid_batch(seeded_trees, tmp_path, algorithm):
    path = tmp_path / "join.ckpt"
    baseline = run(seeded_trees, algorithm, **BASELINE)
    ref = run(seeded_trees, algorithm, batch_size=16)
    assert stream(ref) == stream(baseline)
    run(
        seeded_trees,
        algorithm,
        batch_size=16,
        checkpoint_path=str(path),
        checkpoint_every_pairs=7,
    )
    payload = load_checkpoint(path)
    assert payload["mode"] == "exact"
    assert 0 < payload["watermark"] < len(ref.results)
    resumed = run(
        seeded_trees, algorithm, batch_size=16, resume_from=str(path)
    )
    assert stream(resumed) == stream(baseline)
    assert_rows_match(ref.stats.as_row(), resumed.stats.as_row())


def test_idj_kill_resume_mid_batch(seeded_trees, tmp_path):
    """Interrupt a batched stream mid-run; the resume continues exactly.

    ``next_batch`` suspends the generator at a yield *inside* the bulk
    loop, so pending (popped-but-unconsumed) heads are outstanding when
    the shutdown lands — the checkpoint barrier must drain them before
    the queue snapshot is taken.
    """
    tree_r, tree_s = seeded_trees
    path = tmp_path / "stream.ckpt"
    with JoinRunner(tree_r, tree_s, JoinConfig(**BASELINE)).idj("amidj") as ref:
        reference = [
            (p.distance, p.ref_r, p.ref_s) for p in ref.next_batch(220)
        ]

    config = JoinConfig(
        batch_size=16, checkpoint_path=str(path), checkpoint_every_pairs=10
    )
    interrupted = JoinRunner(tree_r, tree_s, config).idj("amidj")
    first = [
        (p.distance, p.ref_r, p.ref_s) for p in interrupted.next_batch(50)
    ]
    assert first == reference[:50]
    CheckpointManager.shutdown_all("SIGINT")
    # The shutdown latch is only checked at the per-batch barrier; the
    # suspended bulk run may yield a few more results before the next
    # barrier drains it and raises.
    with pytest.raises(JoinInterrupted):
        interrupted.next_batch(40)
    interrupted.close()
    CheckpointManager.reset_shutdown()

    watermark = load_checkpoint(path)["watermark"]
    assert 50 <= watermark < 220
    resume_config = JoinConfig(batch_size=16, resume_from=str(path))
    with JoinRunner(tree_r, tree_s, resume_config).idj("amidj") as resumed:
        rest = [
            (p.distance, p.ref_r, p.ref_s) for p in resumed.next_batch(120)
        ]
    assert rest == reference[watermark : watermark + 120]


# ----------------------------------------------------------------------
# Knob plumbing
# ----------------------------------------------------------------------


def test_resolve_batch_size(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    assert resolve_batch_size(None) == 0
    assert resolve_batch_size(0) == 0
    assert resolve_batch_size(8) == 8
    assert resolve_batch_size(-3) == 0
    monkeypatch.setenv("REPRO_BATCH", "12")
    assert resolve_batch_size(None) == 12
    assert resolve_batch_size(4) == 4  # explicit beats env
    monkeypatch.setenv("REPRO_BATCH", "junk")
    assert resolve_batch_size(None) == 0


def test_batch_controller_policy():
    fixed = BatchController(8)
    assert [fixed.width(1.0), fixed.width(2.0)] == [8, 8]
    adaptive = BatchController(0)
    assert adaptive.width(5.0) == 1  # first sample
    assert adaptive.width(5.0) == 2  # stable: widen
    assert adaptive.width(5.0) == 4
    assert adaptive.width(3.0) == 1  # cutoff moved: collapse
    widths = [adaptive.width(3.0) for _ in range(12)]
    assert max(widths) == 64  # capped at MAX_BATCH
