"""HS's child-list scan against a plain scalar loop, bit for bit.

:class:`~repro.kernels.window.ChildWindow` computes only the children
whose edges can reach the partner along one sorted axis; its two cuts
must skip no child that ``min_distance`` puts within the bound.  Random
child lists (grid rects, so distances tie; points and segments; one
very wide child that holds the running maximum up; ``-0.0`` edges;
off-grid coordinates) at the scales 1, 1e-160 (squared gaps underflow)
and 1e154 (they overflow) meet partners that are single rects or large
node MBRs, under bounds of 0.0, ``inf``, a child's exact distance (a tie
at the bound), its neighbouring floats and grid steps.  The returned
``(index, distance)`` list must equal the loop's, each distance's bits
and sign included, through ``ChildWindow``, ``scan_all`` and the counted
:meth:`~repro.core.stats.Instruments.mindist_within_items`.

Tier-1 runs a fixed derandomized budget; ``--hypothesis-profile fuzz``
runs the larger random one of the CI fuzz steps.  Every failing example
becomes an ``@example``.
"""

import math
from types import SimpleNamespace

from hypothesis import example, given, strategies as st

from repro.core.stats import Instruments
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.kernels.window import ChildWindow, scan_all
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage.disk import SimulatedDisk

from tests.conftest import seed_budget

SCALES = [1.0, 1e-160, 1e154]
#: Grid cells per side; a grid step is 2.5 units before scaling.
CELLS = 30


def reference(partner, children, bound):
    """The plain loop: every child's ``min_distance``, kept if within."""
    out = []
    for i, child in enumerate(children):
        real = min_distance(partner, child)
        if real <= bound:
            out.append((i, real))
    return out


def bits(pairs):
    """``(index, hex)`` pairs: equal only if every distance's bits are."""
    return [(i, d.hex()) for i, d in pairs]


def coordinate(draw, scale):
    """A grid line, -0.0 for the zero line half the time, or off-grid."""
    kind = draw(st.sampled_from(["grid", "grid", "grid", "off"]))
    if kind == "off":
        return draw(st.floats(0.0, CELLS * 2.5)) * scale
    value = draw(st.integers(0, CELLS)) * 2.5 * scale
    if value == 0.0 and draw(st.booleans()):
        return -0.0
    return value


@st.composite
def rects(draw, scale):
    x, y = coordinate(draw, scale), coordinate(draw, scale)
    w = draw(st.sampled_from([0, 0, 1, 2])) * 2.5 * scale
    h = draw(st.sampled_from([0, 0, 1, 2])) * 2.5 * scale
    return Rect(x, y, x + w, y + h)


@st.composite
def cases(draw):
    scale = draw(st.sampled_from(SCALES))
    children = draw(st.lists(rects(scale), max_size=40))
    if children and draw(st.booleans()):
        # One child as wide (or tall) as the grid: its high edge holds
        # the running maximum up for every child sorted after it.
        span = CELLS * 2.5 * scale
        at = draw(st.integers(0, len(children) - 1))
        edge = coordinate(draw, scale)
        wide = (
            Rect(0.0, edge, span, edge)
            if draw(st.booleans())
            else Rect(edge, 0.0, edge, span)
        )
        children.insert(at, wide)
    shape = draw(st.sampled_from(["rect", "point", "node"]))
    if shape == "node":
        # A node MBR: the union of a few grid rects, as HS's partner is
        # when it expands the other side's node.
        partner = Rect.union_of(draw(st.lists(rects(scale), min_size=1, max_size=6)))
    else:
        partner = draw(rects(scale))
        if shape == "point":
            partner = Rect.from_point(partner.xmin, partner.ymin)
    kind = draw(st.sampled_from(["zero", "inf", "tie", "below", "above", "grid"]))
    if kind == "zero":
        bound = 0.0
    elif kind == "inf":
        bound = math.inf
    elif kind == "grid" or not children:
        bound = draw(st.integers(0, 2 * CELLS)) * 2.5 * scale
    else:
        bound = min_distance(partner, draw(st.sampled_from(children)))
        if kind == "below":
            bound = math.nextafter(bound, -math.inf)
        elif kind == "above":
            bound = math.nextafter(bound, math.inf)
    return partner, children, bound


def make_instruments() -> Instruments:
    disk = SimulatedDisk()
    tree = RTree.bulk_load([(Rect(0, 0, 1, 1), 0)])
    accessor = TreeAccessor(tree, disk, 4096)
    return Instruments(disk, accessor, accessor)


@seed_budget(tier1=200)
@given(case=cases())
# A gap of 2.6e-162 squares to one subnormal step, whose root reads
# 2.2227e-162: the distance is below the gap, so a cut at the bound
# itself would drop this child.
@example(
    case=(
        Rect.from_point(0.0, 0.0),
        [Rect.from_point(5.0, 5.0), Rect.from_point(2.6e-162, 1e-170)],
        min_distance(Rect.from_point(0.0, 0.0), Rect.from_point(2.6e-162, 1e-170)),
    )
)
# -0.0 edges touching +0.0 ones: the gap reads -0.0 - 0.0.
@example(
    case=(
        Rect(0.0, -1.0, 1.0, 0.0),
        [Rect(0.5, -0.0, 2.0, 1.0), Rect(-0.0, 3.0, 4.0, 3.0)],
        0.0,
    )
)
def test_window_scan_matches_the_scalar_loop(case):
    partner, children, bound = case
    want = bits(reference(partner, children, bound))
    assert all(math.copysign(1.0, float.fromhex(d)) == 1.0 for _, d in want)
    assert bits(ChildWindow(children).within(partner, bound)) == want
    if bound == math.inf:
        assert bits(scan_all(partner, children)) == want
    instr = make_instruments()
    items = [SimpleNamespace(rect=child) for child in children]
    for _ in range(2):  # built under the tag, then reused
        assert bits(instr.mindist_within_items(partner, items, bound, tag=0)) == want
    # Every child is counted, whatever the scan computed.
    assert instr.real_distance_computations == 2 * len(children)
