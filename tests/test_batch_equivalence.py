"""Bulk-pop batched expansion is invisible in results and counters.

The batched expansion loop is pure mechanics: at any batch width
(adaptive or fixed) every exact engine must produce the byte-identical
result stream and the same paper counters as single-pop execution.
SJ-SORT and the within-distance join must sweep on the arena-backed
flat body and reproduce the recorded output of the object-graph body it
replaced.  The checkpoint cases pin the drain-at-barrier property: a
checkpoint taken while batching was active resumes into the identical
remaining stream.
"""

import random

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree, within_distance_join
from repro.kernels.flat import BatchController, resolve_batch_size
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.errors import JoinInterrupted
from repro.resilience.recovery import load_checkpoint

from tests.conftest import brute_force_within, fingerprint

EXACT_KDJ = ["hs", "bkdj", "amkdj"]
IDJ = ["amidj", "hs"]

# Baseline: strict single pops.
BASELINE = dict(batch_size=1)
VARIANTS = {
    "adaptive": dict(batch_size=0),
    "fixed16": dict(batch_size=16),
    "fixed3": dict(batch_size=3),
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
# k-distance joins: every width, same everything
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

#: Fingerprints (see ``tests.conftest.fingerprint``) of the object-graph
#: sweep body's runs, which the flat body must reproduce bit for bit:
#: stream, Table-2 row and simulated clock.  Recorded with both bodies
#: and both kernel backends agreeing.
OBJECT_GRAPH = {
    ("sjsort", 5): (
        "ceaceba70c44e373432b9ef0b73c6cc5ec8fb952e1a79375677c1426db790fd1",
        "6898239bc1bce81ad8ea36d1e5d1fb594169c1254a03e3974811c6ae96393b9c",
        0.6018369539504211,
    ),
    ("sjsort", 17): (
        "dd7198ec7d6584aac801c80f6c9ace80af4e123254ab7a9f17238d57d642c224",
        "28ea09ff6a5806359529a24eadd2bbb538e2e28b7d78121d96c5e92361b2d243",
        0.601391655101493,
    ),
    ("sjsort", "touching"): (
        "9399419d2d8efef9734a764ae4d12c5775313a8fdbaf2be82f9c998382db3669",
        "fc8af9c7e87663cf5561e8164772e4b6a8ae3a4e43601be5e8d7560ce90cd7aa",
        0.6032074800797541,
    ),
    ("within", 0.0): (
        "9399419d2d8efef9734a764ae4d12c5775313a8fdbaf2be82f9c998382db3669",
        "705c735010fae16b85a3ea4850febcad0ea60c26c89fcb063dde1673962ebe59",
        0.6020454184992142,
    ),
    ("within", 6.0): (
        "326404b44928e48cb79c1660072b95eefe30a2c3bf5f38987e156ceb9a2d62ca",
        "6102c5c4979ce8b67028182c2a3a6a8f172b5a337a2d47644c3dbd0800aebead",
        0.61235095137987,
    ),
}


def touching_items():
    """Rects on a coarse grid: hundreds of pairs touch or overlap."""
    rng = random.Random(31)
    sides = []
    for n in (380, 300):
        items = []
        for i in range(n):
            x, y = rng.randrange(0, 60) * 2.5, rng.randrange(0, 60) * 2.5
            w, h = rng.randrange(0, 3) * 2.5, rng.randrange(0, 3) * 2.5
            items.append((Rect(x, y, x + w, y + h), i))
        sides.append(items)
    return tuple(sides)


@pytest.fixture(scope="module")
def touching_trees():
    return tuple(
        RTree.bulk_load(items, max_entries=16) for items in touching_items()
    )


def pairs(result):
    return {(p.ref_r, p.ref_s) for p in result.results}


def test_sjsort_flat_equals_object_graph_at_oracle_dmax(
    request, seeded_trees, flat_served
):
    seed = request.node.callspec.params["seeded_trees"]
    oracle = JoinRunner(*seeded_trees).kdj(60, "nlj")
    dmax = oracle.results[-1].distance
    assert dmax > 0.0
    got = JoinRunner(*seeded_trees).kdj(60, "sjsort", dmax)
    assert flat_served, "SJ-SORT did not sweep on the flat body"
    assert got.distances == oracle.distances
    assert fingerprint(got.results, got.stats) == OBJECT_GRAPH["sjsort", seed]


def test_sjsort_flat_equals_object_graph_over_touching_pairs(
    touching_trees, flat_served
):
    got = JoinRunner(*touching_trees).kdj(10_000, "sjsort", 0.0)
    assert flat_served, "SJ-SORT did not sweep on the flat body"
    assert len(got) > 100
    assert pairs(got) == brute_force_within(*touching_items(), 0.0)
    assert fingerprint(got.results, got.stats) == OBJECT_GRAPH["sjsort", "touching"]


@pytest.mark.parametrize("dmax", [0.0, 6.0])
def test_within_join_flat_equals_object_graph(touching_trees, flat_served, dmax):
    got = within_distance_join(*touching_trees, dmax)
    assert flat_served, "the within-join did not sweep on the flat body"
    assert len(got) > 100
    assert pairs(got) == brute_force_within(*touching_items(), dmax)
    assert fingerprint(got.results, got.stats) == OBJECT_GRAPH["within", dmax]


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
