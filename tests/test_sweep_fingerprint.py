"""The plane sweep's exact output, pinned run by run.

Each run below is fingerprinted by the sha256 of its result stream, the
sha256 of its Table-2 row (``as_row()`` without ``wall_time``) and its
simulated clock as an exact float.  The values were recorded with both
kernel backends, with and without NumPy, and with the object-graph
sweep body that the flat body replaced, all agreeing.  Any change to the
sweep that moves a pair, a counter or a clock bit fails here, under
whichever backend the suite runs.  The runs cover AM-KDJ, B-KDJ, HS,
SJ-SORT at the oracle's Dmax, an AM-KDJ whose small eDmax forces a
compensation stage, a multi-stage AM-IDJ pull and a within-distance
join.  Below them, SJ-SORT and the within-distance join are pinned on
small seeded and touching inputs to the output of the object-graph
sweep body.

A change that moves the paper's metric on purpose must re-record the
values (print ``fingerprint(*RUNS[name](trees))`` for each run) and say
why.
"""

import random

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree, within_distance_join
from repro.datagen.tiger import synthetic_tiger

from tests.conftest import brute_force_within, fingerprint


@pytest.fixture(scope="module")
def trees():
    data = synthetic_tiger(4000, 1500, seed=18)
    return RTree.bulk_load(data.streets), RTree.bulk_load(data.hydro)


def kdj(k, algorithm, dmax_k=None, edmax_share=None):
    """A k-distance join run.  ``dmax_k`` takes the oracle's k-th pair
    distance as SJ-SORT's ``dmax`` or, scaled by ``edmax_share``, as
    AM-KDJ's eDmax."""

    def run(trees, **cfg):
        dmax = None
        if dmax_k is not None:
            dmax = JoinRunner(*trees, JoinConfig(**cfg)).true_dmax(dmax_k)
        if edmax_share is not None:
            cfg, dmax = dict(cfg, edmax=edmax_share * dmax), None
        result = JoinRunner(*trees, JoinConfig(**cfg)).kdj(k, algorithm, dmax)
        return result.results, result.stats

    return run


def amidj_pull(trees, **cfg):
    runner = JoinRunner(*trees, JoinConfig(initial_k=100, **cfg))
    with runner.idj("amidj") as stream:
        pairs = stream.next_batch(3000)
        return pairs, stream.stats()


def within(trees, **cfg):
    dmax = JoinRunner(*trees, JoinConfig(**cfg)).true_dmax(500)
    result = within_distance_join(*trees, dmax, JoinConfig(**cfg))
    return result.results, result.stats


RUNS = {
    "amkdj-10": kdj(10, "amkdj"),
    "amkdj-1000": kdj(1000, "amkdj"),
    "bkdj-1000": kdj(1000, "bkdj"),
    "hs-100": kdj(100, "hs"),
    "sjsort-300": kdj(300, "sjsort", dmax_k=300),
    "amkdj-1000-compensated": kdj(1000, "amkdj", dmax_k=1000, edmax_share=0.1),
    "amidj-3000": amidj_pull,
    "within-dmax500": within,
}

FINGERPRINTS = {
    "amidj-3000": (
        "8ea56958fa3e9161f7f4bc199bee7665f883d011d416637adb361d6026be39fd",
        "253008b63bdb4b3f13ad4f9b8a2fd79075ae5e26a2c0ef2a2324362849d5a9c9",
        1.1457619670661077,
    ),
    "amkdj-10": (
        "7546ec84d66de17f5bf1b70f9428a6a9d13c2320db8e52279b7af0f9b4ba698b",
        "b159dcc0d97bfcf68ad415072e571c118b0fe36687b0b7d23c1c69b354de5ed6",
        0.6638140037412565,
    ),
    "amkdj-1000": (
        "39fc833f94b308a4642f41c9dd58371761fb258091fc87780d57bf335ea15470",
        "82682218f061cd9ddea6bd5005d14f17b6ebdcc906a4084d1da11b079e2cab72",
        0.7707325147022683,
    ),
    "amkdj-1000-compensated": (
        "39fc833f94b308a4642f41c9dd58371761fb258091fc87780d57bf335ea15470",
        "5163797256fa16074b76c7c2831a1661550ff527440e42aa57617c373ba43485",
        0.7816309147022651,
    ),
    "bkdj-1000": (
        "39fc833f94b308a4642f41c9dd58371761fb258091fc87780d57bf335ea15470",
        "883d6724037fc19ee7b9bba59eff08e86bcb02f7ba8551771026bd438911281d",
        0.873614264702205,
    ),
    "hs-100": (
        "441dfbe8ab0a81522500023cdb4ea4dd76d0293742314cfb18a5e34417815f04",
        "29545994e61ca348d81704e3aeecb9f672962170efaee26dc0230274e72ec4cd",
        1.0501404999999846,
    ),
    "sjsort-300": (
        "4d2d97b567856552b255f27c0f6609323c588d84f9195045bbfe0f5eca79269f",
        "fa5b393158940e53e870b8e72a60aa7d292cfa8abe9e6c390a8799c7c50a1d15",
        0.7037171115075224,
    ),
    "within-dmax500": (
        "8d430040d820e9393ee1998e3aeb2b3ae7bc2e05cb8cf858d83b46c09c53f69f",
        "ffc9710678b0eb39e736c02f9c2f76e38e232d472b2de2a20f7998426478f27a",
        0.7081559623109283,
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_sweep_output_matches_the_recorded_fingerprint(trees, name):
    assert fingerprint(*RUNS[name](trees)) == FINGERPRINTS[name]


# ----------------------------------------------------------------------
# SJ-SORT and the within-distance join: flat body == object-graph body
# ----------------------------------------------------------------------

#: Fingerprints of the object-graph sweep body's runs, which the flat
#: body must reproduce bit for bit: stream, Table-2 row and simulated
#: clock.  Recorded with both bodies and both kernel backends agreeing.
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
