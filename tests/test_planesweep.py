"""Tests for the optimized plane sweep: index, axis/direction, sweeping."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pairs import Item
from repro.core.planesweep import (
    PlaneSweeper,
    choose_axis,
    choose_direction,
    static_cutoff,
    sweeping_index,
    table1_sweeping_index,
)
from repro.core.stats import Instruments
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage.disk import SimulatedDisk


def make_instruments() -> Instruments:
    disk = SimulatedDisk()
    dummy = RTree.bulk_load([(Rect(0, 0, 1, 1), 0)])
    acc = TreeAccessor(dummy, disk, 4096)
    return Instruments(disk, acc, acc)


def items_from_points(points: list[tuple[float, float]]) -> list[Item]:
    return [Item.object(Rect.from_point(x, y), i) for i, (x, y) in enumerate(points)]


# ----------------------------------------------------------------------
# Sweeping index
# ----------------------------------------------------------------------


class TestSweepingIndex:
    def test_zero_cutoff(self):
        assert sweeping_index(Rect(0, 0, 1, 1), Rect(5, 0, 6, 1), 0, 0.0) == 0.0

    def test_below_gap_is_zero(self):
        # alpha = 4; cutoff below it never reaches s
        assert sweeping_index(Rect(0, 0, 1, 1), Rect(5, 0, 6, 1), 0, 3.0) == 0.0

    def test_huge_cutoff_saturates_at_one(self):
        r, s = Rect(0, 0, 2, 1), Rect(5, 0, 8, 1)
        # every child of r sees all of s (fraction 1); s's forward windows
        # never reach r, so the second term is zero (paper Section 3.2)
        assert math.isclose(sweeping_index(r, s, 0, 1000.0), 1.0)

    def test_monotone_in_cutoff(self):
        r, s = Rect(0, 0, 4, 1), Rect(2, 0, 9, 1)
        values = [sweeping_index(r, s, 0, c) for c in (0.5, 1, 2, 4, 8, 16)]
        assert values == sorted(values)

    def test_overlapping_nodes_positive_both_terms(self):
        r, s = Rect(0, 0, 4, 4), Rect(1, 1, 3, 3)
        assert sweeping_index(r, s, 0, 1.0) > 0.0

    def test_matches_closed_form_hand_case(self):
        # r = [0,2], s = [5,8], cutoff 6, gap alpha = 3: the raw integral
        # of clamp(u, 0, 3) for u in [1, 3] is (9 - 1)/2 = 4; divide by
        # |s| = 3 and normalize by |r| = 2.
        r, s = Rect(0, 0, 2, 1), Rect(5, 0, 8, 1)
        assert math.isclose(sweeping_index(r, s, 0, 6.0), 4.0 / 3.0 / 2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.1, 50),   # |r|
        st.floats(0.1, 50),   # |s|
        st.floats(0.0, 20),   # gap alpha
        st.floats(0.01, 200),  # cutoff
    )
    def test_agrees_with_table1_closed_form(self, len_r, len_s, alpha, cutoff):
        r = Rect(0.0, 0.0, len_r, 1.0)
        s = Rect(len_r + alpha, 0.0, len_r + alpha + len_s, 1.0)
        exact = sweeping_index(r, s, 0, cutoff)
        closed = table1_sweeping_index(r, s, 0, cutoff)
        # the exact index normalizes the Table 1 integral by |r|
        assert math.isclose(exact, closed / len_r, rel_tol=1e-9, abs_tol=1e-9)

    def test_table1_rejects_overlap(self):
        with pytest.raises(ValueError):
            table1_sweeping_index(Rect(0, 0, 2, 1), Rect(1, 0, 3, 1), 0, 1.0)

    # Extents are either exactly degenerate (0.0) or bounded away from
    # the subnormal regime: mixing a ~1e-160 extent with O(1) gaps makes
    # *any* algebraic rearrangement of Equation (2) lose all precision
    # after normalization, so that regime is outside the agreement
    # contract (the index only steers axis choice there anyway).
    _extent = st.one_of(st.just(0.0), st.floats(1e-3, 50))

    @settings(max_examples=200, deadline=None)
    @given(
        _extent,               # |r| (0 allowed: degenerate sweeping node)
        _extent,               # |s| (0 allowed: degenerate point target)
        st.floats(0.001, 20),  # gap alpha (strictly separated)
        st.floats(0.01, 200),  # cutoff
    )
    def test_closed_form_route_on_random_nonoverlapping(
        self, len_r, len_s, alpha, cutoff
    ):
        """The choose_axis fast path must agree with the exact integrator.

        Random non-overlapping (possibly degenerate) rects: the routed
        closed form — Table 1 over the leading node, trailing term zero —
        is what the exact Equation (2) integration reduces to.
        """
        from repro.core.planesweep import CLOSED_FORM_AXIS_COST, _axis_index_and_cost

        r = Rect(0.0, 0.0, len_r, 1.0)
        s = Rect(len_r + alpha, 0.0, len_r + alpha + len_s, 1.0)
        exact = sweeping_index(r, s, 0, cutoff)
        routed, cost = _axis_index_and_cost(r.xmin, r.xmax, s.xmin, s.xmax, cutoff)
        assert math.isclose(routed, exact, rel_tol=1e-9, abs_tol=1e-9)
        assert cost == CLOSED_FORM_AXIS_COST

    def test_table1_degenerate_s_limit(self):
        # Point target at gap 3 from r = [0, 2]: positions of the sweep
        # window containing the point are min(|r|, cutoff - alpha).
        r, s = Rect(0, 0, 2, 1), Rect(5, 0, 5, 1)
        assert table1_sweeping_index(r, s, 0, 2.0) == 0.0   # below the gap
        assert table1_sweeping_index(r, s, 0, 4.0) == 1.0   # partial ramp
        assert table1_sweeping_index(r, s, 0, 50.0) == 2.0  # saturated at |r|
        # and it matches the exact integrator (normalized by |r|)
        for cutoff in (2.0, 3.5, 4.0, 6.0, 50.0):
            exact = sweeping_index(r, s, 0, cutoff)
            assert math.isclose(
                exact, table1_sweeping_index(r, s, 0, cutoff) / 2.0, abs_tol=1e-12
            )


def _numeric_index_term(a_lo, a_hi, b_lo, b_hi, cutoff, steps=20_000):
    """Midpoint-rule integration of Equation (2)'s integrand."""
    if cutoff <= 0.0 or a_hi <= a_lo:
        return 0.0
    width = b_hi - b_lo
    total = 0.0
    h = (a_hi - a_lo) / steps
    for i in range(steps):
        t = a_lo + (i + 0.5) * h
        overlap = min(t + cutoff, b_hi) - max(t, b_lo)
        if width > 0:
            total += max(0.0, overlap) / width * h
        else:
            # Degenerate b: indicator of the window containing the point.
            total += h if b_lo - cutoff <= t <= b_lo else 0.0
    return total


class TestIndexTermNumericRegression:
    """Regression: the analytic terms must match numeric integration,
    including every degenerate-extent combination (the incommensurability
    class of bug the normalization exists to prevent)."""

    CASES = [
        # (a_lo, a_hi, b_lo, b_hi, cutoff)
        (0.0, 2.0, 5.0, 8.0, 6.0),     # disjoint, regular
        (0.0, 4.0, 2.0, 9.0, 1.5),     # overlapping
        (0.0, 4.0, 1.0, 3.0, 0.7),     # containment
        (0.0, 2.0, 5.0, 5.0, 6.0),     # degenerate b, reachable
        (0.0, 2.0, 5.0, 5.0, 1.0),     # degenerate b, out of reach
        (1.0, 1.0, 3.0, 7.0, 3.0),     # degenerate a inside reach
        (1.0, 1.0, 3.0, 7.0, 1.0),     # degenerate a out of reach
        (2.0, 2.0, 2.0, 2.0, 1.0),     # both degenerate, coincident
        (2.0, 2.0, 4.0, 4.0, 1.0),     # both degenerate, apart
        (0.0, 10.0, 3.0, 3.0, 2.0),    # degenerate b inside a's span
    ]

    @pytest.mark.parametrize("a_lo,a_hi,b_lo,b_hi,cutoff", CASES)
    def test_index_term_matches_numeric(self, a_lo, a_hi, b_lo, b_hi, cutoff):
        from repro.core.planesweep import _index_term

        analytic = _index_term(a_lo, a_hi, b_lo, b_hi, cutoff)
        numeric = _numeric_index_term(a_lo, a_hi, b_lo, b_hi, cutoff)
        assert math.isclose(analytic, numeric, rel_tol=1e-3, abs_tol=1e-3)

    @pytest.mark.parametrize("a_lo,a_hi,b_lo,b_hi,cutoff", CASES)
    def test_normalized_term_is_a_fraction(self, a_lo, a_hi, b_lo, b_hi, cutoff):
        """Both branches of _normalized_term return commensurable values:
        an expected *fraction* in [0, 1], never an un-normalized length."""
        from repro.core.planesweep import _normalized_term

        value = _normalized_term(a_lo, a_hi, b_lo, b_hi, cutoff)
        assert 0.0 <= value <= 1.0 + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0, 10), st.floats(0, 10),
        st.floats(-5, 15), st.floats(0, 10),
        st.floats(0.01, 40),
    )
    def test_random_terms_match_numeric(self, a_lo, a_len, b_lo, b_len, cutoff):
        from repro.core.planesweep import _index_term

        a_hi, b_hi = a_lo + a_len, b_lo + b_len
        analytic = _index_term(a_lo, a_hi, b_lo, b_hi, cutoff)
        numeric = _numeric_index_term(a_lo, a_hi, b_lo, b_hi, cutoff, steps=4000)
        assert math.isclose(analytic, numeric, rel_tol=5e-3, abs_tol=5e-3)


# ----------------------------------------------------------------------
# Axis and direction selection
# ----------------------------------------------------------------------


class TestAxisChoice:
    def test_prefers_spread_axis_for_infinite_cutoff(self):
        instr = make_instruments()
        r, s = Rect(0, 0, 1, 100), Rect(2, 0, 3, 100)
        assert choose_axis(instr, r, s, math.inf) == 1

    def test_prefers_low_index_axis(self):
        instr = make_instruments()
        # Wide spread along y, tight along x: y windows overlap less.
        r, s = Rect(0, 0, 2, 50), Rect(1, 0, 3, 50)
        assert choose_axis(instr, r, s, 1.0) == 1

    def test_paper_figure5_scenario(self):
        # Children spread widely along y; x distances all within cutoff.
        instr = make_instruments()
        r = Rect(0.0, 0.0, 4.0, 100.0)
        s = Rect(1.0, 0.0, 5.0, 100.0)
        assert choose_axis(instr, r, s, 10.0) == 1


class TestDirectionChoice:
    def test_intersecting_case(self):
        # Fig 7(a): intervals [0,3] (left) / [3,4] / [4,6] (right)
        assert choose_direction(Rect(0, 0, 4, 1), Rect(3, 0, 6, 1), 0) is False
        # left interval [0,1] shorter than right [3,6] -> forward
        assert choose_direction(Rect(0, 0, 3, 1), Rect(1, 0, 6, 1), 0) is True

    def test_disjoint_case(self):
        # Fig 7(b): left node shorter -> forward
        assert choose_direction(Rect(0, 0, 1, 1), Rect(5, 0, 9, 1), 0) is True
        assert choose_direction(Rect(0, 0, 4, 1), Rect(5, 0, 6, 1), 0) is False

    def test_containment_case(self):
        # Fig 7(c): both outer intervals from the big node
        assert choose_direction(Rect(0, 0, 10, 1), Rect(1, 0, 4, 1), 0) is True
        assert choose_direction(Rect(0, 0, 10, 1), Rect(7, 0, 9, 1), 0) is False

    def test_tie_is_forward(self):
        assert choose_direction(Rect(0, 0, 2, 1), Rect(0, 0, 2, 1), 0) is True


# ----------------------------------------------------------------------
# The sweep itself
# ----------------------------------------------------------------------


def run_expand(
    items_r: list[Item],
    items_s: list[Item],
    cutoff: float,
    optimize_axis=True,
    optimize_direction=True,
    keep_record=False,
    real_cutoff: float | None = None,
):
    """Sweep two item lists; the real filter defaults to the axis cutoff."""
    instr = make_instruments()
    sweeper = PlaneSweeper(instr, optimize_axis, optimize_direction)
    emitted: list[tuple[int, int, float]] = []
    parent_r = Item.node(Rect.union_of([i.rect for i in items_r]), 0, 1)
    parent_s = Item.node(Rect.union_of([i.rect for i in items_s]), 0, 1)
    record = sweeper.expand(
        parent_r,
        parent_s,
        items_r,
        items_s,
        axis_limit=static_cutoff(cutoff),
        real_limit=static_cutoff(real_cutoff if real_cutoff is not None else cutoff),
        emit=lambda a, b, d: emitted.append((a.ref, b.ref, d)),
        keep_record=keep_record,
    )
    return emitted, record, sweeper, instr


def brute_pairs(items_r, items_s, cutoff):
    return {
        (a.ref, b.ref)
        for a, b in itertools.product(items_r, items_s)
        if min_distance(a.rect, b.rect) <= cutoff
    }


@pytest.mark.parametrize("optimize_axis", [False, True])
@pytest.mark.parametrize("optimize_direction", [False, True])
def test_sweep_finds_exactly_pairs_within_cutoff(optimize_axis, optimize_direction):
    rng = random.Random(42)
    items_r = items_from_points([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(40)])
    items_s = items_from_points([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(30)])
    for cutoff in (0.0, 5.0, 20.0, 200.0):
        emitted, _, _, _ = run_expand(
            items_r, items_s, cutoff, optimize_axis, optimize_direction
        )
        got = {(a, b) for a, b, _ in emitted}
        assert got == brute_pairs(items_r, items_s, cutoff)
        assert len(emitted) == len(got), "pair emitted twice"


def test_sweep_distances_are_correct():
    rng = random.Random(1)
    items_r = items_from_points([(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(20)])
    items_s = items_from_points([(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(20)])
    emitted, _, _, _ = run_expand(items_r, items_s, 30.0)
    for a, b, d in emitted:
        assert math.isclose(
            d, min_distance(items_r[a].rect, items_s[b].rect), abs_tol=1e-12
        )


def test_sweep_counts_axis_and_real_computations():
    rng = random.Random(2)
    items_r = items_from_points([(rng.uniform(0, 10), 0.0) for _ in range(10)])
    items_s = items_from_points([(rng.uniform(0, 10), 0.0) for _ in range(10)])
    _, _, _, instr = run_expand(items_r, items_s, 100.0)
    assert instr.axis_distance_computations >= instr.real_distance_computations > 0


def test_emit_keeps_r_side_first():
    items_r = items_from_points([(0.0, 0.0)])
    items_s = items_from_points([(1.0, 0.0), (-1.0, 0.0)])
    emitted, _, _, _ = run_expand(items_r, items_s, 10.0)
    assert {(a, b) for a, b, _ in emitted} == {(0, 0), (0, 1)}


class TestCompensation:
    """AM-IDJ's shape: each stage prunes on the axis only, with no real
    filter, so every pair inside a scanned window is emitted and a later
    stage only extends the scans past their recorded resume positions."""

    def _compensate(self, record, sweeper, cutoff):
        emitted: list[tuple[int, int, float]] = []
        sweeper.compensate(
            record,
            axis_limit=static_cutoff(cutoff),
            real_limit=static_cutoff(math.inf),
            emit=lambda a, b, d: emitted.append((a.ref, b.ref, d)),
        )
        return emitted

    def test_resume_recovers_exactly_the_skipped_pairs(self):
        rng = random.Random(3)
        items_r = items_from_points(
            [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(30)]
        )
        items_s = items_from_points(
            [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(25)]
        )
        small, large = 8.0, 25.0
        emitted1, record, sweeper, _ = run_expand(
            items_r, items_s, small, keep_record=True, real_cutoff=math.inf
        )
        first = [(a, b) for a, b, _ in emitted1]
        assert len(first) == len(set(first)), "stage one emitted a pair twice"
        assert brute_pairs(items_r, items_s, small) <= set(first)
        emitted2 = self._compensate(record, sweeper, large)
        second = [(a, b) for a, b, _ in emitted2]
        assert len(second) == len(set(second)), "compensation emitted a pair twice"
        assert not set(first) & set(second), "compensation re-emitted a pair"
        assert brute_pairs(items_r, items_s, large) <= set(first) | set(second)
        # Everything emitted is a true pair with its true distance.
        for a, b, d in emitted1 + emitted2:
            assert d == min_distance(items_r[a].rect, items_s[b].rect)

    def test_multi_stage_compensation(self):
        rng = random.Random(4)
        items_r = items_from_points(
            [(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(20)]
        )
        items_s = items_from_points(
            [(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(20)]
        )
        cutoffs = [3.0, 10.0, 40.0, 200.0]
        emitted1, record, sweeper, _ = run_expand(
            items_r, items_s, cutoffs[0], keep_record=True, real_cutoff=math.inf
        )
        emitted_all = [(a, b) for a, b, _ in emitted1]
        assert brute_pairs(items_r, items_s, cutoffs[0]) <= set(emitted_all)
        for cutoff in cutoffs[1:]:
            emitted_all += [(a, b) for a, b, _ in self._compensate(record, sweeper, cutoff)]
            assert len(emitted_all) == len(set(emitted_all)), "duplicate across stages"
            assert brute_pairs(items_r, items_s, cutoff) <= set(emitted_all)
        # The last cutoff spans the data: every pair, once, and nothing left.
        assert set(emitted_all) == brute_pairs(items_r, items_s, math.inf)
        assert record.fully_swept()

    def test_fully_swept_detection(self):
        items_r = items_from_points([(0.0, 0.0), (1.0, 0.0)])
        items_s = items_from_points([(0.5, 0.0), (2.0, 0.0)])
        _, record, sweeper, _ = run_expand(
            items_r, items_s, 100.0, keep_record=True
        )
        assert record.fully_swept()
        _, record2, _, _ = run_expand(
            items_r, items_s, 0.6, keep_record=True
        )
        assert not record2.fully_swept()

    def test_record_holds_two_ints_per_anchor(self):
        items_r = items_from_points([(0.0, 0.0), (1.0, 0.0)])
        items_s = items_from_points([(0.5, 0.0), (2.0, 0.0)])
        _, record, _, _ = run_expand(
            items_r, items_s, 0.6, optimize_axis=False, optimize_direction=False,
            keep_record=True,
        )
        # x-forward merge: r0 (scans s0, stops at s1), s0 (scans r1,
        # covers it), r1 (scans s1 and stops there); R-side positions are
        # stored as ``pos``, S-side ones as ``~pos``.
        assert record.anchors.typecode == "i"
        assert list(record.anchors) == [0, 1, ~0, 2, 1, 1]


class _CountingCutoff:
    """A cutoff closure that counts its reads; ``value`` may be tightened."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.value


def _reference_sweep(instr, sorted_r, keys_r, sorted_s, keys_s, axis, forward,
                     axis_limit, real_limit, emit):
    """The merge sweep written plainly: cutoffs read per pair, and the
    counters and clock charged per anchor through ``count_axis`` and
    ``count_real``, as the scan loop did before it batched them."""
    i = j = 0
    while i < len(sorted_r) and j < len(sorted_s):
        from_r = keys_r[i] <= keys_s[j]
        if from_r:
            anchor, other, other_keys, start = sorted_r[i], sorted_s, keys_s, j
            i += 1
        else:
            anchor, other, other_keys, start = sorted_s[j], sorted_r, keys_r, i
            j += 1
        end = anchor.rect.hi(axis) if forward else -anchor.rect.lo(axis)
        checked = scanned = 0
        for idx in range(start, len(other)):
            checked += 1
            if other_keys[idx] - end > axis_limit():
                break
            scanned += 1
            real = min_distance(anchor.rect, other[idx].rect)
            if real <= real_limit():
                if from_r:
                    emit(anchor, other[idx], real)
                else:
                    emit(other[idx], anchor, real)
        instr.count_axis(checked)
        instr.count_real(scanned)


class TestMergeSweepBatching:
    """The scan loop reads cutoffs once per sweep and after each emit, and
    hands its counts and charges over in batches: observably the same as
    per-pair reads and per-anchor charges."""

    @staticmethod
    def _sides(seed, forward=True):
        rng = random.Random(seed)
        items_r = items_from_points(
            [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(60)]
        )
        items_s = items_from_points(
            [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(45)]
        )
        sweeper = PlaneSweeper(make_instruments())
        sorted_r, keys_r = sweeper._sort_side(items_r, 0, forward)
        sorted_s, keys_s = sweeper._sort_side(items_s, 0, forward)
        return sweeper, sorted_r, keys_r, sorted_s, keys_s

    @pytest.mark.parametrize("same_limit", [False, True])
    def test_each_cutoff_is_read_once_per_sweep_plus_once_per_emit(self, same_limit):
        sweeper, sorted_r, keys_r, sorted_s, keys_s = self._sides(5)
        axis_limit = _CountingCutoff(6.0)
        real_limit = axis_limit if same_limit else _CountingCutoff(4.0)
        emitted = []
        sweeper._merge_sweep(
            sorted_r, keys_r, sorted_s, keys_s, 0, True,
            axis_limit, real_limit, lambda a, b, d: emitted.append(d), None,
        )
        assert emitted
        assert axis_limit.reads == 1 + len(emitted)
        assert real_limit.reads == 1 + len(emitted)

    @pytest.mark.parametrize("seed", [6, 7, 8])
    @pytest.mark.parametrize("forward", [True, False])
    def test_emits_see_the_per_anchor_counters_and_clock(self, seed, forward):
        # A cutoff that tightens with every emit (a k-bounded result set,
        # as qDmax does), checked bit for bit against the plain sweep at
        # every emit and at the end.
        def run(batched):
            sweeper, sorted_r, keys_r, sorted_s, keys_s = self._sides(seed, forward)
            instr = sweeper._instr
            disk = instr.disk
            disk.random_read(3)  # a clock that is not 0.0
            best: list[float] = []
            limit = _CountingCutoff(30.0)
            seen = []

            def emit(a, b, d):
                seen.append((a.ref, b.ref, d, instr.axis_distance_computations,
                             instr.real_distance_computations, disk.clock, disk.cpu_time))
                best.append(d)
                best.sort()
                del best[40:]
                if len(best) == 40:
                    limit.value = best[-1]

            args = (sorted_r, keys_r, sorted_s, keys_s, 0, forward, limit, limit, emit)
            if batched:
                sweeper._merge_sweep(*args, None)
            else:
                _reference_sweep(instr, *args)
            return seen, (instr.axis_distance_computations,
                          instr.real_distance_computations,
                          disk.clock, disk.cpu_time, disk.io_time)

        got_seen, got_end = run(batched=True)
        want_seen, want_end = run(batched=False)
        assert len(got_seen) > 40
        assert got_seen == want_seen
        assert got_end == want_end


def test_fixed_sweep_is_x_axis_forward():
    # With optimizations off, pairs along y should not benefit from the
    # axis cutoff at all: everything within x-cutoff gets a real check.
    items_r = items_from_points([(0.0, y) for y in range(10)])
    items_s = items_from_points([(0.5, y + 1000.0) for y in range(10)])
    _, _, _, instr = run_expand(
        items_r, items_s, 5.0, optimize_axis=False, optimize_direction=False
    )
    fixed_reals = instr.real_distance_computations
    _, _, _, instr2 = run_expand(items_r, items_s, 5.0)
    assert instr2.real_distance_computations < fixed_reals
