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
join.

A change that moves the paper's metric on purpose must re-record the
values (print ``fingerprint(*RUNS[name](trees, **CONFIG))`` for each
run) and say why.
"""

import pytest

from repro import JoinConfig, JoinRunner, RTree, within_distance_join
from repro.datagen.tiger import synthetic_tiger

from tests.conftest import fingerprint

#: The library's default bulk-pop width, pinned so that ``REPRO_BATCH``
#: (which the CI matrix sets) cannot move a float charge by an ulp.
CONFIG = dict(batch_size=0)


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
    assert fingerprint(*RUNS[name](trees, **CONFIG)) == FINGERPRINTS[name]
