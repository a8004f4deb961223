"""Bitwise differential: the plane sweep's planning against its reference.

The sweep plans every expansion with Equation (2) and Table 1 (the
sweeping axis) and the interval rule (the direction).  The library
evaluates both on plain floats, with each builtin ``min``/``max``
written as a conditional and each breakpoint's overlap fraction
computed once.  The reference below is the plain form: the same
arithmetic through ``Rect.lo``/``Rect.hi``, builtin ``min``/``max``,
and both fractions of every piece.  The two must agree bit for bit
(``struct.pack("<d", ...)``, so ``-0.0`` differs from ``0.0``) on every
index, pick the same axis and direction, and charge the same CPU to the
simulated clock.

The cases collide on purpose: signed zeros, touching and degenerate
projections, cutoffs of 0, ``inf`` and above the span, on grids scaled
near 1e-160 (squares underflow) and 1e154 (squares overflow).  Tier-1
runs a seeded sweep and a few derandomized Hypothesis examples;
``--hypothesis-profile fuzz`` runs the larger budget of the CI fuzz
step.  A case that ever fails becomes an ``@example`` here.
"""

import math
import random
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.core import planesweep
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk

from tests.conftest import seed_budget


# ----------------------------------------------------------------------
# The reference: planning through Rect accessors and builtin min/max
# ----------------------------------------------------------------------


def ref_sweeping_index(r, s, axis, cutoff):
    return ref_normalized_term(
        r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis), cutoff
    ) + ref_normalized_term(s.lo(axis), s.hi(axis), r.lo(axis), r.hi(axis), cutoff)


def ref_normalized_term(a_lo, a_hi, b_lo, b_hi, cutoff):
    if a_hi > a_lo:
        return ref_index_term(a_lo, a_hi, b_lo, b_hi, cutoff) / (a_hi - a_lo)
    if cutoff <= 0.0:
        return 0.0
    if b_hi <= b_lo:
        return 1.0 if b_lo - cutoff <= a_lo <= b_lo else 0.0
    overlap = min(a_lo + cutoff, b_hi) - max(a_lo, b_lo)
    return max(0.0, overlap) / (b_hi - b_lo)


def ref_index_term(a_lo, a_hi, b_lo, b_hi, cutoff):
    if cutoff <= 0.0 or a_hi < a_lo:
        return 0.0
    if b_hi <= b_lo:
        lo = max(a_lo, b_lo - cutoff)
        hi = min(a_hi, b_lo)
        return max(0.0, hi - lo)
    width = b_hi - b_lo
    breakpoints = sorted((a_lo, a_hi, b_lo - cutoff, b_hi - cutoff, b_lo, b_hi))
    total = 0.0
    left = breakpoints[0]
    for right in breakpoints[1:]:
        lo = max(left, a_lo)
        hi = min(right, a_hi)
        left = right
        if hi <= lo:
            continue
        f_lo = max(0.0, min(lo + cutoff, b_hi) - max(lo, b_lo)) / width
        f_hi = max(0.0, min(hi + cutoff, b_hi) - max(hi, b_lo)) / width
        total += (f_lo + f_hi) / 2.0 * (hi - lo)
    return total


def ref_table1_sweeping_index(r, s, axis, cutoff):
    r_lo, r_hi = r.lo(axis), r.hi(axis)
    s_lo, s_hi = s.lo(axis), s.hi(axis)
    if r_lo > s_lo:
        r_lo, r_hi, s_lo, s_hi = s_lo, s_hi, r_lo, r_hi
    alpha = s_lo - r_hi
    if alpha < 0:
        raise ValueError("table1_sweeping_index requires non-overlapping nodes")
    len_s = s_hi - s_lo
    if len_s == 0:
        lo = max(r_lo, s_lo - cutoff)
        hi = min(r_hi, s_lo)
        return max(0.0, hi - lo)

    def antiderivative(x):
        if x <= 0.0:
            return 0.0
        if x <= len_s:
            return x * x / 2.0
        return len_s * x - len_s * len_s / 2.0

    upper = antiderivative(cutoff - alpha)
    lower = antiderivative(cutoff - (r_hi - r_lo) - alpha)
    return (upper - lower) / len_s


def ref_axis_index_and_cost(r, s, axis, cutoff):
    r_lo, r_hi = r.lo(axis), r.hi(axis)
    s_lo, s_hi = s.lo(axis), s.hi(axis)
    if r_hi < s_lo or s_hi < r_lo:
        if r_lo <= s_lo:
            first_lo, first_hi, second_lo, second_hi = r_lo, r_hi, s_lo, s_hi
        else:
            first_lo, first_hi, second_lo, second_hi = s_lo, s_hi, r_lo, r_hi
        if first_hi > first_lo:
            index = ref_table1_sweeping_index(r, s, axis, cutoff) / (first_hi - first_lo)
        else:
            index = ref_normalized_term(first_lo, first_hi, second_lo, second_hi, cutoff)
        return index, planesweep.CLOSED_FORM_AXIS_COST
    return ref_sweeping_index(r, s, axis, cutoff), planesweep.EXACT_AXIS_COST


def ref_choose_axis(instr, r, s, cutoff):
    span_x = max(r.xmax, s.xmax) - min(r.xmin, s.xmin)
    span_y = max(r.ymax, s.ymax) - min(r.ymin, s.ymin)
    if not math.isfinite(cutoff) or cutoff <= 0.0 or cutoff >= max(span_x, span_y):
        return 0 if span_x >= span_y else 1
    index_x, cost_x = ref_axis_index_and_cost(r, s, 0, cutoff)
    index_y, cost_y = ref_axis_index_and_cost(r, s, 1, cutoff)
    instr.disk.charge_cpu(
        (cost_x + cost_y) * instr.disk.cost_model.cpu_axis_distance
    )
    if index_x == index_y:
        return 0 if span_x >= span_y else 1
    return 0 if index_x < index_y else 1


def ref_choose_direction(r, s, axis):
    points = sorted((r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis)))
    left = points[1] - points[0]
    right = points[3] - points[2]
    return left <= right


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------


def bits(value):
    return struct.pack("<d", value)


def projections(r, s, axis):
    return r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis)


def charged_disk():
    """A fresh disk whose clock is not 0.0, behind a minimal instruments."""
    disk = SimulatedDisk()
    disk.random_read(3)
    return SimpleNamespace(disk=disk)


def assert_same_planning(r, s, cutoff):
    """Every planning value of ``(r, s, cutoff)`` equals the reference's."""
    case = (r, s, cutoff)
    for axis in (0, 1):
        got = planesweep.sweeping_index(r, s, axis, cutoff)
        assert bits(got) == bits(ref_sweeping_index(r, s, axis, cutoff)), case
        r_lo, r_hi, s_lo, s_hi = projections(r, s, axis)
        for a_lo, a_hi, b_lo, b_hi in ((r_lo, r_hi, s_lo, s_hi), (s_lo, s_hi, r_lo, r_hi)):
            args = (a_lo, a_hi, b_lo, b_hi, cutoff)
            assert bits(planesweep._index_term(*args)) == bits(ref_index_term(*args)), args
            assert bits(planesweep._normalized_term(*args)) == bits(
                ref_normalized_term(*args)
            ), args
        index, cost = planesweep._axis_index_and_cost(r_lo, r_hi, s_lo, s_hi, cutoff)
        ref_index, ref_cost = ref_axis_index_and_cost(r, s, axis, cutoff)
        assert (bits(index), cost) == (bits(ref_index), ref_cost), (case, axis)
        try:
            want = ref_table1_sweeping_index(r, s, axis, cutoff)
        except ValueError:
            with pytest.raises(ValueError):
                planesweep.table1_sweeping_index(r, s, axis, cutoff)
        else:
            got = planesweep.table1_sweeping_index(r, s, axis, cutoff)
            assert bits(got) == bits(want), (case, axis)
        assert planesweep.choose_direction(r, s, axis) is ref_choose_direction(
            r, s, axis
        ), (case, axis)
    instr, ref_instr = charged_disk(), charged_disk()
    axis = planesweep.choose_axis(instr, r, s, cutoff)
    assert axis == ref_choose_axis(ref_instr, r, s, cutoff), case
    disk, ref_disk = instr.disk, ref_instr.disk
    assert (bits(disk.cpu_time), bits(disk.clock)) == (
        bits(ref_disk.cpu_time), bits(ref_disk.clock)
    ), case


#: Grid scales: plain, squares that underflow, squares that overflow.
SCALES = (1.0, 1e-160, 1e154)
#: Grid coordinates that collide: duplicates, touching edges, and 0.0
#: beside -0.0.
GRID = (-2.5, -1.0, -0.0, 0.0, 1.0, 2.5, 4.0, 5.0)


def rect_from(xs, ys):
    """A rect from two x and two y values, each pair sorted (stably, so
    ``0.0`` and ``-0.0`` can land either way round)."""
    (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
    return Rect(x0, y0, x1, y1)


def cutoffs_for(r, s, rng):
    """0, inf, one above the span, the gaps and edges themselves, random."""
    span = max(r.xmax, s.xmax, r.ymax, s.ymax) - min(r.xmin, s.xmin, r.ymin, s.ymin)
    edges = [abs(v) for v in (r.xmin, r.xmax, r.ymin, r.ymax, s.xmin, s.xmax, s.ymin, s.ymax)]
    gaps = [abs(s.xmin - r.xmax), abs(r.xmin - s.xmax), abs(s.ymin - r.ymax)]
    return [
        0.0, -0.0, math.inf, span, span * 1.5 + 1e-300,
        rng.choice(edges), rng.choice(gaps), rng.random() * span,
    ]


@pytest.mark.parametrize("scale", SCALES)
def test_seeded_cases_are_bit_equal(scale):
    rng = random.Random(2029)
    for _ in range(600):
        def coord():
            if rng.random() < 0.6:
                return rng.choice(GRID) * scale
            return rng.uniform(-6.0, 6.0) * scale

        r = rect_from((coord(), coord()), (coord(), coord()))
        s = rect_from((coord(), coord()), (coord(), coord()))
        for cutoff in cutoffs_for(r, s, rng):
            assert_same_planning(r, s, cutoff)


def test_touching_and_degenerate_projections():
    cases = [
        (Rect(0.0, 0.0, 2.0, 2.0), Rect(2.0, 0.0, 4.0, 2.0)),    # touching in x
        (Rect(0.0, 0.0, 2.0, 2.0), Rect(-0.0, 2.0, 2.0, 3.0)),   # -0.0 edge
        (Rect(1.0, 1.0, 1.0, 1.0), Rect(1.0, 1.0, 1.0, 1.0)),    # coincident points
        (Rect(1.0, 0.0, 1.0, 5.0), Rect(3.0, 2.0, 3.0, 2.0)),    # segment, point
        (Rect(0.0, -0.0, 0.0, 0.0), Rect(-0.0, 0.0, -0.0, -0.0)),  # signed-zero points
        (Rect(0.0, 0.0, 10.0, 10.0), Rect(3.0, 3.0, 3.0, 7.0)),  # contained segment
    ]
    for r, s in cases:
        for cutoff in (0.0, 0.5, 1.0, 2.0, 3.0, 9.999, 10.0, 50.0, math.inf):
            assert_same_planning(r, s, cutoff)
            assert_same_planning(s, r, cutoff)


_scale = st.sampled_from(SCALES)
_coord = st.one_of(
    st.sampled_from(GRID),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_cutoff = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf]),
    st.floats(0.0, 4e3, allow_nan=False, allow_infinity=False),
)


@seed_budget(tier1=60)
@given(
    scale=_scale,
    xs_r=st.tuples(_coord, _coord), ys_r=st.tuples(_coord, _coord),
    xs_s=st.tuples(_coord, _coord), ys_s=st.tuples(_coord, _coord),
    cutoff=_cutoff,
)
def test_hypothesis_cases_are_bit_equal(scale, xs_r, ys_r, xs_s, ys_s, cutoff):
    def scaled(pair):
        return tuple(v * scale for v in pair)

    r = rect_from(scaled(xs_r), scaled(ys_r))
    s = rect_from(scaled(xs_s), scaled(ys_s))
    assert_same_planning(r, s, cutoff * scale)
