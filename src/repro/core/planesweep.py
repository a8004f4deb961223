"""Optimized plane sweep for bidirectional node expansion (Section 3).

Bidirectional expansion of a node pair is a Cartesian product of the two
child sets; the plane sweep avoids materializing it.  Children of both
nodes are sorted along a *sweeping axis*; the node with the smallest
coordinate becomes the *anchor* and is paired only with nodes of the
other set whose axis distance is within the cutoff — the scan stops at
the first node beyond it, which is sound because the axis distance to the
anchor grows monotonically along the sorted order.

The two novel optimizations are

- **sweeping-axis selection** (Section 3.2): pick the axis with the
  smaller *sweeping index* — a closed-form estimate of how many pairs the
  sweep will have to compute real distances for (Equation 2, Table 1);
- **sweeping-direction selection** (Section 3.3): sweep from the end
  where the two projections' outer intervals are shorter, so close pairs
  are discovered first and the cutoff tightens sooner.

Cutoffs are passed as zero-argument callables because they genuinely
change *during* a sweep: every object pair emitted may tighten ``qDmax``.

This module also implements the per-anchor *resume bookkeeping* the
adaptive multi-stage algorithms need: an :class:`ExpansionRecord` captures
the sorted child lists and, for every anchor, where its scan stopped, so a
compensation stage re-examines only the child pairs the aggressive stage
skipped (Algorithm 3).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from repro.core.pairs import Item
from repro.core.stats import Instruments
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect

#: Signature of the pair consumer: (item_from_R, item_from_S, distance).
EmitFn = Callable[[Item, Item, float], None]

#: A pruning cutoff, re-read whenever it is applied.
CutoffFn = Callable[[], float]


def static_cutoff(value: float) -> CutoffFn:
    """A cutoff that never changes during the sweep."""
    return lambda: value


# ----------------------------------------------------------------------
# Sweeping index (Equation 2) — exact piecewise-linear integration
# ----------------------------------------------------------------------


def sweeping_index(r: Rect, s: Rect, axis: int, cutoff: float) -> float:
    """Equation (2): expected sweep work along ``axis`` for this cutoff.

    Computed by exact integration of the sliding-window overlap, which
    agrees with the paper's Table 1 closed forms for non-overlapping
    nodes (verified by unit tests) and also covers the overlapping case.

    One deliberate correction to the printed equation: each integral is
    normalized by the *sweeping node's* projected length (turning it into
    the expected fraction of cross pairs examined).  Without that factor
    the two axes' indexes are not commensurable — the raw integral over a
    long, fully-overlapped axis exceeds the integral over a short axis
    even when the long axis prunes vastly better, which contradicts the
    paper's own Figure 5 motivation.  The footnote-2 description ("a
    normalized estimation of the number of node pairs") matches the
    normalized form.
    """
    r_lo, r_hi, s_lo, s_hi = r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis)
    return _normalized_term(r_lo, r_hi, s_lo, s_hi, cutoff) + _normalized_term(
        s_lo, s_hi, r_lo, r_hi, cutoff
    )


# The Equation (2) and Table 1 helpers below work on plain floats.  Each
# ``max(a, b)`` is written ``b if b > a else a`` and each ``min(a, b)``
# ``b if b < a else a``: the operand the builtin returns, so signed zeros
# come out as they would, at a fraction of a builtin call's cost.


def _normalized_term(
    a_lo: float, a_hi: float, b_lo: float, b_hi: float, cutoff: float
) -> float:
    """Expected fraction of b's children inside one of a's sweep windows."""
    if a_hi > a_lo:
        return _index_term(a_lo, a_hi, b_lo, b_hi, cutoff) / (a_hi - a_lo)
    # Degenerate a: all children share one window; evaluate the integrand
    # at the point instead of integrating over a zero-length range.
    if cutoff <= 0.0:
        return 0.0
    if b_hi <= b_lo:
        return 1.0 if b_lo - cutoff <= a_lo <= b_lo else 0.0
    reach = a_lo + cutoff
    overlap = (b_hi if b_hi < reach else reach) - (b_lo if b_lo > a_lo else a_lo)
    return (overlap if overlap > 0.0 else 0.0) / (b_hi - b_lo)


def _index_term(
    a_lo: float, a_hi: float, b_lo: float, b_hi: float, cutoff: float
) -> float:
    """One integral of Equation (2).

    ``(1 / |b|) * integral over t in [a_lo, a_hi] of
    len([t, t + cutoff] n [b_lo, b_hi]) dt`` — the expected fraction of
    b's children inside the sweep window of each of a's children.
    """
    if cutoff <= 0.0 or a_hi < a_lo:
        return 0.0
    if b_hi <= b_lo:
        # Degenerate b: the "fraction covered" is 1 while the window
        # contains the point, 0 otherwise.
        lo = b_lo - cutoff
        lo = lo if lo > a_lo else a_lo
        covered = (b_lo if b_lo < a_hi else a_hi) - lo
        return covered if covered > 0.0 else 0.0

    width = b_hi - b_lo
    # The six breakpoints cut [a_lo, a_hi] into pieces on which the
    # overlap fraction ``max(0, min(t + cutoff, b_hi) - max(t, b_lo)) /
    # width`` is linear, so the trapezoid is exact.  The pieces that
    # count are the ones between consecutive breakpoints inside [a_lo,
    # a_hi], in sorted order; a duplicate breakpoint makes an empty piece
    # that adds nothing.  The fraction at each breakpoint is computed
    # once and serves the piece on either side of it.
    total = f_left = 0.0
    left = a_lo  # the first breakpoint inside equals a_lo: no piece yet
    for t in sorted((a_lo, a_hi, b_lo - cutoff, b_hi - cutoff, b_lo, b_hi)):
        if a_lo <= t <= a_hi:
            reach = t + cutoff
            overlap = (b_hi if b_hi < reach else reach) - (b_lo if b_lo > t else t)
            f_t = (overlap if overlap > 0.0 else 0.0) / width
            if left < t:
                total += (f_left + f_t) / 2.0 * (t - left)
            left = t
            f_left = f_t
    return total


def table1_sweeping_index(r: Rect, s: Rect, axis: int, cutoff: float) -> float:
    """Closed-form sweeping index for non-overlapping ``r``, ``s``.

    This is the paper's Table 1 (the printed table in our source scan is
    OCR-garbled, so the form is re-derived from Equation 2): with ``r``
    first along the axis, gap ``alpha`` and side lengths ``R``, ``S``,
    the second integral term vanishes and the first reduces to

        ( H(c - alpha) - H(c - R - alpha) ) / S

    where ``H`` is the antiderivative of ``clamp(u, 0, S)``.  Expanding
    ``H`` over its three pieces yields exactly Table 1's case analysis:
    zero below ``alpha``, a quadratic ramp, then saturation at ``R``.
    Used to cross-validate the exact integrator above.
    """
    r_lo, r_hi = r.lo(axis), r.hi(axis)
    s_lo, s_hi = s.lo(axis), s.hi(axis)
    if r_lo > s_lo:
        r_lo, r_hi, s_lo, s_hi = s_lo, s_hi, r_lo, r_hi
    return _table1_term(r_lo, r_hi, s_lo, s_hi, cutoff)


def _table1_term(
    r_lo: float, r_hi: float, s_lo: float, s_hi: float, cutoff: float
) -> float:
    """:func:`table1_sweeping_index` on floats, with ``r`` leading."""
    alpha = s_lo - r_hi
    if alpha < 0:
        raise ValueError("table1_sweeping_index requires non-overlapping nodes")
    len_s = s_hi - s_lo
    if len_s == 0:
        # Degenerate second node: the limit of the closed form as
        # |s| -> 0.  The ramp H collapses to a step, leaving the measure
        # of sweep positions whose window [t, t + cutoff] contains the
        # point.  Written exactly as the degenerate branch of
        # ``_index_term`` (not the algebraically-equal
        # ``min(|r|, cutoff - alpha)``) so the two routes agree bitwise:
        # ``cutoff - alpha`` cancels catastrophically when the gap is
        # close to the cutoff, and dividing by a tiny |r| amplifies that
        # ulp into an O(1) error in the normalized index.
        lo = s_lo - cutoff
        lo = lo if lo > r_lo else r_lo
        covered = (s_lo if s_lo < r_hi else r_hi) - lo
        return covered if covered > 0.0 else 0.0
    # H(x): 0 for x <= 0, x^2 / 2 up to |s|, then linear.
    x = cutoff - alpha
    if x <= 0.0:
        upper = 0.0
    elif x <= len_s:
        upper = x * x / 2.0
    else:
        upper = len_s * x - len_s * len_s / 2.0
    x = cutoff - (r_hi - r_lo) - alpha
    if x <= 0.0:
        lower = 0.0
    elif x <= len_s:
        lower = x * x / 2.0
    else:
        lower = len_s * x - len_s * len_s / 2.0
    return (upper - lower) / len_s


# ----------------------------------------------------------------------
# Axis and direction selection
# ----------------------------------------------------------------------


#: CPU charged (in ``cpu_axis_distance`` units) per axis whose index is
#: computed by the Table 1 closed form: a comparison, a couple of
#: subtractions and one quadratic-ramp evaluation.
CLOSED_FORM_AXIS_COST = 4
#: CPU charged per axis evaluated by the exact piecewise integrator:
#: a six-breakpoint sort plus up to five trapezoids, for both Equation
#: (2) terms.
EXACT_AXIS_COST = 30


def _axis_index_and_cost(
    r_lo: float, r_hi: float, s_lo: float, s_hi: float, cutoff: float
) -> tuple[float, int]:
    """Sweeping index along one axis, with the CPU units it cost.

    Takes the two projections on the axis.  When they do not overlap the
    trailing Equation (2) term is exactly zero (the second node's forward
    windows never reach back to the first) and the leading term has the
    Table 1 closed form, so the piecewise integrator is skipped entirely.
    """
    # Strictly disjoint only: touching projections (and coincident
    # degenerate points, where the trailing term is *not* zero) take the
    # exact integrator.
    if r_hi < s_lo or s_hi < r_lo:
        if r_lo <= s_lo:
            first_lo, first_hi, second_lo, second_hi = r_lo, r_hi, s_lo, s_hi
        else:
            first_lo, first_hi, second_lo, second_hi = s_lo, s_hi, r_lo, r_hi
        if first_hi > first_lo:
            index = _table1_term(
                first_lo, first_hi, second_lo, second_hi, cutoff
            ) / (first_hi - first_lo)
        else:
            # Degenerate sweeping node: point-evaluated, also O(1).
            index = _normalized_term(first_lo, first_hi, second_lo, second_hi, cutoff)
        return index, CLOSED_FORM_AXIS_COST
    index = _normalized_term(r_lo, r_hi, s_lo, s_hi, cutoff) + _normalized_term(
        s_lo, s_hi, r_lo, r_hi, cutoff
    )
    return index, EXACT_AXIS_COST


def choose_axis(instr: Instruments, r: Rect, s: Rect, cutoff: float) -> int:
    """Pick the sweeping axis with the smaller sweeping index.

    With an infinite (or zero) cutoff the index is uninformative, so fall
    back to the natural heuristic: sweep along the dimension where the
    combined extent is larger (more spread means more pruning).

    CPU accounting is proportional to the work actually done: axes whose
    projections are disjoint use the Table 1 closed form (a few
    arithmetic operations); overlapping axes run the exact piecewise
    integrator, which costs roughly an order of magnitude more.  The
    eight coordinates are read once, and the helpers work on floats.
    """
    r_xmin, r_ymin, r_xmax, r_ymax = r.xmin, r.ymin, r.xmax, r.ymax
    s_xmin, s_ymin, s_xmax, s_ymax = s.xmin, s.ymin, s.xmax, s.ymax
    span_x = (s_xmax if s_xmax > r_xmax else r_xmax) - (
        s_xmin if s_xmin < r_xmin else r_xmin
    )
    span_y = (s_ymax if s_ymax > r_ymax else r_ymax) - (
        s_ymin if s_ymin < r_ymin else r_ymin
    )
    if (
        not math.isfinite(cutoff)
        or cutoff <= 0.0
        or cutoff >= (span_y if span_y > span_x else span_x)
    ):
        return 0 if span_x >= span_y else 1
    index_x, cost_x = _axis_index_and_cost(r_xmin, r_xmax, s_xmin, s_xmax, cutoff)
    index_y, cost_y = _axis_index_and_cost(r_ymin, r_ymax, s_ymin, s_ymax, cutoff)
    disk = instr.disk
    disk.charge_cpu((cost_x + cost_y) * disk.cost_model.cpu_axis_distance)
    if index_x == index_y:
        return 0 if span_x >= span_y else 1
    return 0 if index_x < index_y else 1


def choose_direction(r: Rect, s: Rect, axis: int) -> bool:
    """True for a forward sweep (Section 3.3's interval rule).

    The projections of ``r`` and ``s`` cut the axis into three intervals;
    sweep from the side whose outer interval is shorter, so that close
    pairs are met early and the cutoff drops fast.
    """
    if axis == 0:
        points = sorted((r.xmin, r.xmax, s.xmin, s.xmax))
    else:
        points = sorted((r.ymin, r.ymax, s.ymin, s.ymax))
    return points[1] - points[0] <= points[3] - points[2]


# ----------------------------------------------------------------------
# Sweep bookkeeping structures
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ExpansionRecord:
    """Everything needed to compensate one aggressively-expanded pair.

    Holds the parent pair, the sorted child lists (sorted once, in stage
    one — compensation must not pay for sorting again) and where each
    anchor's scan stopped, so a later stage knows exactly which child
    pairs were never examined.  Every examined pair was filtered with a
    safe real cutoff (qDmax in AM-KDJ, none in AM-IDJ), so nothing
    inside a scanned window needs revisiting.

    ``anchors`` holds two ints per anchor, in sweep order: the anchor's
    position in its own sorted list (``pos`` for an R-side anchor,
    ``~pos`` for an S-side one) and ``resume``, the first position of
    the *other* sorted list its scan has not examined.  One flat
    ``array("i")`` instead of an object per anchor keeps records cheap
    to hold, to collect and to pickle into a checkpoint.

    ``keys_r``/``keys_s`` are the child lists' sweep-order coordinates
    from stage one, so compensation resumes each scan without
    re-deriving them.
    """

    a: Item
    b: Item
    distance: float
    axis: int
    forward: bool
    sorted_r: list[Item]
    sorted_s: list[Item]
    anchors: array
    keys_r: list[float]
    keys_s: list[float]

    def fully_swept(self) -> bool:
        """True when no anchor has unexamined positions left."""
        anchors = self.anchors
        n_r, n_s = len(self.sorted_r), len(self.sorted_s)
        for slot in range(0, len(anchors), 2):
            if anchors[slot + 1] < (n_s if anchors[slot] >= 0 else n_r):
                return False
        return True


# ----------------------------------------------------------------------
# The sweeper
# ----------------------------------------------------------------------


#: A child's low and high edge along axis 0 and 1: the sort keys of a
#: forward and of a backward sweep.
_LOW_EDGE = (attrgetter("rect.xmin"), attrgetter("rect.ymin"))
_HIGH_EDGE = (attrgetter("rect.xmax"), attrgetter("rect.ymax"))


class PlaneSweeper:
    """Performs (and compensates) bidirectional plane-sweep expansions.

    Parameters
    ----------
    instr:
        Instrumented operations (distance counting, CPU charging).
    optimize_axis / optimize_direction:
        The Section 3.2/3.3 optimizations; both default on.  Turning them
        off fixes the sweep to the x axis, forward — the configuration
        the paper uses as the Figure 11 baseline.

    Every real distance is computed per pair, inline, whatever the
    kernels backend: an anchor's scan averages about two pairs, too
    short for a vector call to pay (see :mod:`repro.kernels`).  The
    per-anchor bookkeeping is kept off the hot path too: cutoffs are
    read once per sweep and after each emit, the distance counters are
    handed over in batches, and the CPU charges are folded into the
    disk's clock in place, in the order the per-anchor calls would have
    made them (see :meth:`_merge_sweep`).  The per-expansion setup is
    cheap as well: axis and direction selection work on the node MBRs'
    plain floats, and each node side is sorted once per join with
    C-level keys (see :meth:`_sort_side`).  None of this moves a pair, a
    counter or a clock bit.
    """

    def __init__(
        self,
        instr: Instruments,
        optimize_axis: bool = True,
        optimize_direction: bool = True,
    ) -> None:
        self._instr = instr
        #: ``(side_r, page id, axis, forward) -> (sorted children, keys)``:
        #: each node side sorted once per join (see :meth:`_side`).
        #: Keyed by page ids, so it never outgrows the trees.
        self._sides: dict[tuple, tuple[list[Item], list[float]]] = {}
        self.optimize_axis = optimize_axis
        self.optimize_direction = optimize_direction

    # -- public entry points -------------------------------------------

    def expand(
        self,
        a: Item,
        b: Item,
        children_r: list[Item],
        children_s: list[Item],
        axis_limit: CutoffFn,
        real_limit: CutoffFn,
        emit: EmitFn,
        keep_record: bool = False,
        pair_distance: float = 0.0,
    ) -> ExpansionRecord | None:
        """Sweep the children of pair ``(a, b)``.

        ``axis_limit`` bounds the scan along the sweeping axis (qDmax in
        B-KDJ, eDmax in the aggressive stage); ``real_limit`` filters on
        real distance before emitting.  Both tighten as the sweep
        proceeds.  The real filter must be safe — no pair it rejects may
        be needed later — because a record resumes each scan where it
        stopped and never revisits a scanned window.

        Contract: the state the two cutoff closures read may change
        *only* through the ``emit`` callback (true for every engine —
        the closures read result/main queues that nothing else touches
        while the sweeper runs).  The scan loops rely on this to cache
        each limit as a float and re-read it only after an emit, which
        is observably identical to re-reading per pair but removes the
        dominant per-pair cost of the sweep.

        When ``keep_record`` is set, returns an :class:`ExpansionRecord`
        from which :meth:`compensate` can resume every anchor's scan.
        """
        select_cutoff = min(axis_limit(), real_limit())
        axis, forward = self._plan(a, b, select_cutoff)
        sorted_r, keys_r = self._side(a, children_r, True, axis, forward)
        sorted_s, keys_s = self._side(b, children_s, False, axis, forward)

        anchors: list[int] | None = [] if keep_record else None
        self._merge_sweep(
            sorted_r, keys_r, sorted_s, keys_s,
            axis, forward, axis_limit, real_limit, emit, anchors,
        )
        if anchors is None:
            return None
        return ExpansionRecord(
            a=a,
            b=b,
            distance=pair_distance,
            axis=axis,
            forward=forward,
            sorted_r=sorted_r,
            sorted_s=sorted_s,
            anchors=array("i", anchors),
            keys_r=keys_r,
            keys_s=keys_s,
        )

    def _plan(self, a: Item, b: Item, select_cutoff: float) -> tuple[int, bool]:
        """(axis, forward) for a pair: Sections 3.2 and 3.3, once per expansion."""
        axis = (
            choose_axis(self._instr, a.rect, b.rect, select_cutoff)
            if self.optimize_axis
            else 0
        )
        forward = (
            choose_direction(a.rect, b.rect, axis) if self.optimize_direction else True
        )
        return axis, forward

    def compensate(
        self,
        record: ExpansionRecord,
        axis_limit: CutoffFn,
        real_limit: CutoffFn,
        emit: EmitFn,
    ) -> None:
        """Re-sweep only what earlier stages skipped (Algorithm 3).

        For every anchor, positions from its stored ``resume`` index on
        were never examined and are swept now under the new cutoffs;
        positions before it were examined, and their pairs emitted,
        already.  The record's resume indices are updated in place so it
        can serve yet another stage.
        """
        axis, forward = record.axis, record.forward
        instr = self._instr
        axis_lim = axis_limit()
        real_lim = real_limit()
        anchors = record.anchors
        for slot in range(0, len(anchors), 2):
            pos = anchors[slot]
            from_r = pos >= 0
            if from_r:
                own = record.sorted_r
                other = record.sorted_s
                other_keys = record.keys_s
            else:
                own = record.sorted_s
                other = record.sorted_r
                other_keys = record.keys_r
                pos = ~pos
            anchor = own[pos]
            anchor_rect = anchor.rect
            # The anchor's far edge in sweep coordinates.
            anchor_end = anchor_rect.hi(axis) if forward else -anchor_rect.lo(axis)
            n = len(other)
            axis_checked = 0
            real_done = 0
            new_resume = n
            for idx in range(anchors[slot + 1], n):
                axis_checked += 1
                if other_keys[idx] - anchor_end > axis_lim:
                    new_resume = idx
                    break
                real = min_distance(anchor_rect, other[idx].rect)
                real_done += 1
                if real <= real_lim:
                    self._emit_oriented(anchor, other[idx], real, from_r, emit)
                    axis_lim = axis_limit()
                    real_lim = real_limit()
            instr.count_axis(axis_checked)
            instr.count_real(real_done)
            anchors[slot + 1] = new_resume

    # -- internals ------------------------------------------------------

    def _side(
        self, item: Item, children: list[Item], side_r: bool,
        axis: int, forward: bool
    ) -> tuple[list[Item], list[float]]:
        """One expansion side: sorted children and their sweep keys.

        A node side is sorted once per join, axis and direction, and
        served from the sweeper's own cache after that, so a node
        re-expanded against many partners sorts once.  The sort CPU is
        charged on every call, hit or miss, so the simulated clock
        cannot tell the two apart.  An object side (a one-item list)
        sorts every time: an object id can equal a page id.  The cache
        relies on no join reading a tree across a write (see
        :meth:`~repro.core.base.JoinContext.children_r`).
        """
        if item.is_object:
            return self._sort_side(children, axis, forward)
        key = (side_r, item.ref, axis, forward)
        side = self._sides.get(key)
        if side is None:
            side = self._sides[key] = self._sort_side(children, axis, forward)
        else:
            self._instr.charge_sort(len(children))
        return side

    def _sort_side(
        self, items: list[Item], axis: int, forward: bool
    ) -> tuple[list[Item], list[float]]:
        """Sort one child list and return it with its sweep keys.

        The key is the low edge for a forward sweep and the negated high
        edge for a backward one.  The sort itself keys on a C-level
        ``attrgetter``: a forward sweep sorts up by the low edge, a
        backward one down by the high edge (``reverse=True``).  Python's
        sort is stable, the reverse sort included, so ties (``-0.0``
        beside ``0.0`` included) keep the child order, exactly as an
        ascending sort on the negated edge would.  The keys are read off
        the sorted list afterwards, each with its bits; a comprehension
        reads them faster than a second ``attrgetter`` pass.  The keys
        list is what the scan loops index into.
        """
        self._instr.charge_sort(len(items))
        if forward:
            ordered = sorted(items, key=_LOW_EDGE[axis])
            if axis == 0:
                return ordered, [it.rect.xmin for it in ordered]
            return ordered, [it.rect.ymin for it in ordered]
        ordered = sorted(items, key=_HIGH_EDGE[axis], reverse=True)
        if axis == 0:
            return ordered, [-it.rect.xmax for it in ordered]
        return ordered, [-it.rect.ymax for it in ordered]

    @staticmethod
    def _emit_oriented(
        anchor: Item, m: Item, real: float, anchor_from_r: bool, emit: EmitFn
    ) -> None:
        """Emit with the R-side item first, whichever side anchored."""
        if anchor_from_r:
            emit(anchor, m, real)
        else:
            emit(m, anchor, real)

    def _merge_sweep(
        self,
        sorted_r: list[Item],
        keys_r: list[float],
        sorted_s: list[Item],
        keys_s: list[float],
        axis: int,
        forward: bool,
        axis_limit: CutoffFn,
        real_limit: CutoffFn,
        emit: EmitFn,
        anchors: list[int] | None,
    ) -> None:
        """Algorithm 1's PlaneSweep loop over both sorted child lists.

        Each anchor's SweepPruning scan runs inline: the sweep fires once
        per anchor across every expansion, and at the ~2-pair average
        scan length a per-anchor call (argument packing, attribute
        reloads) would dominate.  :meth:`compensate` resumes the
        recorded anchors through its own loop; the two must stay
        observably identical.

        Per-anchor work is kept to the scan itself.  The cutoffs are read
        once before the loop and again after each emit (the
        :meth:`expand` contract).  An anchor whose first position already
        fails the axis test costs one comparison and no scan.  The
        distance counts collect in locals, and the disk's two CPU
        accumulators (:attr:`SimulatedDisk.accumulators`) are held in two
        local floats: each anchor adds its charges (``c_axis`` when it
        did not scan, else ``n_axis * c_axis`` then ``scanned *
        c_real``) to both, in order, as one ``charge_cpu`` call per
        charge would.  Counts and floats are written back before every
        emit and at the end, and the floats re-read after every emit,
        which may charge the disk itself.  Every emit thus sees the
        counters and clock of the per-anchor calls, bit for bit.  When
        ``anchors`` is a list, each anchor appends its (encoded) position
        and where its scan stopped, the layout of
        :attr:`ExpansionRecord.anchors`.
        """
        i = j = 0
        n_r, n_s = len(sorted_r), len(sorted_s)
        sqrt = math.sqrt
        inf = math.inf
        # When both cutoffs are the same callable (B-KDJ passes qDmax
        # twice) one read serves both limits.
        same_limit = axis_limit is real_limit
        axis_lim = axis_limit()
        real_lim = axis_lim if same_limit else real_limit()
        instr = self._instr
        disk = instr.disk
        cost_model = disk.cost_model
        c_axis = cost_model.cpu_axis_distance
        c_real = cost_model.cpu_real_distance
        # The disk's accumulators, and the counts since the last flush.
        cpu, clock = disk.accumulators
        axis_count = real_count = 0
        while i < n_r and j < n_s:
            from_r = keys_r[i] <= keys_s[j]
            if from_r:
                anchor, pos = sorted_r[i], i
                start = j
                other, other_keys = sorted_s, keys_s
                i += 1
            else:
                anchor, pos = sorted_s[j], ~j
                start = i
                other, other_keys = sorted_r, keys_r
                j += 1
            anchor_rect = anchor.rect
            if forward:
                anchor_end = anchor_rect.xmax if axis == 0 else anchor_rect.ymax
            else:
                anchor_end = -(anchor_rect.xmin if axis == 0 else anchor_rect.ymin)
            # Unclamped gap: for the nonnegative limits the engines pass,
            # ``raw > limit`` and ``max(0, raw) > limit`` are the same test.
            if other_keys[start] - anchor_end > axis_lim:
                axis_count += 1
                cpu += c_axis
                clock += c_axis
                if anchors is not None:
                    anchors.append(pos)
                    anchors.append(start)
                continue
            a_xmin = anchor_rect.xmin
            a_ymin = anchor_rect.ymin
            a_xmax = anchor_rect.xmax
            a_ymax = anchor_rect.ymax
            n = len(other)
            for idx in range(start, n):
                if other_keys[idx] - anchor_end > axis_lim:
                    stop = idx
                    n_axis = idx - start + 1
                    break
                m = other[idx]
                # ``min_distance`` inlined (same operations, same order,
                # bit-identical result): the call overhead on a ~2-entry
                # average scan is measurable.
                m_rect = m.rect
                dx = a_xmin - m_rect.xmax
                gap = m_rect.xmin - a_xmax
                if gap > dx:
                    dx = gap
                dy = a_ymin - m_rect.ymax
                gap = m_rect.ymin - a_ymax
                if gap > dy:
                    dy = gap
                if dx <= 0.0:
                    real = dy if dy > 0.0 else 0.0
                elif dy <= 0.0:
                    real = dx
                else:
                    # Both gaps positive: apart, even when the squares
                    # underflow to 0.0; squares that overflow read inf.
                    real = sqrt(dx * dx + dy * dy) or max(dx, dy)
                    if real == inf:
                        real = math.hypot(dx, dy)
                if real <= real_lim:
                    instr.axis_distance_computations += axis_count
                    instr.real_distance_computations += real_count
                    axis_count = real_count = 0
                    disk.accumulators = cpu, clock
                    if from_r:
                        emit(anchor, m, real)
                    else:
                        emit(m, anchor, real)
                    cpu, clock = disk.accumulators
                    axis_lim = axis_limit()
                    real_lim = axis_lim if same_limit else real_limit()
            else:
                stop = n
                n_axis = n - start
            # The first position passed, so the scan covered at least one.
            scanned = stop - start
            axis_count += n_axis
            real_count += scanned
            charge = n_axis * c_axis
            cpu += charge
            clock += charge
            charge = scanned * c_real
            cpu += charge
            clock += charge
            if anchors is not None:
                anchors.append(pos)
                anchors.append(stop)
        instr.axis_distance_computations += axis_count
        instr.real_distance_computations += real_count
        disk.accumulators = cpu, clock
