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
from dataclasses import dataclass
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
    return _normalized_term(
        r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis), cutoff
    ) + _normalized_term(s.lo(axis), s.hi(axis), r.lo(axis), r.hi(axis), cutoff)


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
    overlap = min(a_lo + cutoff, b_hi) - max(a_lo, b_lo)
    return max(0.0, overlap) / (b_hi - b_lo)


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
        lo = max(a_lo, b_lo - cutoff)
        hi = min(a_hi, b_lo)
        return max(0.0, hi - lo)

    width = b_hi - b_lo
    # Duplicate breakpoints yield empty pieces that are skipped below, so
    # deduplication would only change what gets skipped, not the sum; a
    # plain sort keeps the accumulation order (and bits) of the deduped
    # form while skipping the set build.  The integrand — the overlap
    # fraction ``max(0, min(t + cutoff, b_hi) - max(t, b_lo)) / width`` —
    # is inlined at both piece ends: it is linear on each piece, so the
    # trapezoid is exact.
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
        lo = max(r_lo, s_lo - cutoff)
        hi = min(r_hi, s_lo)
        return max(0.0, hi - lo)

    def antiderivative(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x <= len_s:
            return x * x / 2.0
        return len_s * x - len_s * len_s / 2.0

    upper = antiderivative(cutoff - alpha)
    lower = antiderivative(cutoff - (r_hi - r_lo) - alpha)
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


def _axis_index_and_cost(r: Rect, s: Rect, axis: int, cutoff: float) -> tuple[float, int]:
    """Sweeping index along one axis, with the CPU units it cost.

    When the projections do not overlap the trailing Equation (2) term
    is exactly zero (the second node's forward windows never reach back
    to the first) and the leading term has the Table 1 closed form, so
    the piecewise integrator is skipped entirely.
    """
    r_lo, r_hi = r.lo(axis), r.hi(axis)
    s_lo, s_hi = s.lo(axis), s.hi(axis)
    # Strictly disjoint only: touching projections (and coincident
    # degenerate points, where the trailing term is *not* zero) take the
    # exact integrator.
    if r_hi < s_lo or s_hi < r_lo:
        if r_lo <= s_lo:
            first_lo, first_hi, second_lo, second_hi = r_lo, r_hi, s_lo, s_hi
        else:
            first_lo, first_hi, second_lo, second_hi = s_lo, s_hi, r_lo, r_hi
        if first_hi > first_lo:
            index = table1_sweeping_index(r, s, axis, cutoff) / (first_hi - first_lo)
        else:
            # Degenerate sweeping node: point-evaluated, also O(1).
            index = _normalized_term(first_lo, first_hi, second_lo, second_hi, cutoff)
        return index, CLOSED_FORM_AXIS_COST
    return sweeping_index(r, s, axis, cutoff), EXACT_AXIS_COST


def choose_axis(instr: Instruments, r: Rect, s: Rect, cutoff: float) -> int:
    """Pick the sweeping axis with the smaller sweeping index.

    With an infinite (or zero) cutoff the index is uninformative, so fall
    back to the natural heuristic: sweep along the dimension where the
    combined extent is larger (more spread means more pruning).

    CPU accounting is proportional to the work actually done: axes whose
    projections are disjoint use the Table 1 closed form (a few
    arithmetic operations); overlapping axes run the exact piecewise
    integrator, which costs roughly an order of magnitude more.
    """
    span_x = max(r.xmax, s.xmax) - min(r.xmin, s.xmin)
    span_y = max(r.ymax, s.ymax) - min(r.ymin, s.ymin)
    if not math.isfinite(cutoff) or cutoff <= 0.0 or cutoff >= max(span_x, span_y):
        return 0 if span_x >= span_y else 1
    index_x, cost_x = _axis_index_and_cost(r, s, 0, cutoff)
    index_y, cost_y = _axis_index_and_cost(r, s, 1, cutoff)
    instr.disk.charge_cpu(
        (cost_x + cost_y) * instr.disk.cost_model.cpu_axis_distance
    )
    if index_x == index_y:
        return 0 if span_x >= span_y else 1
    return 0 if index_x < index_y else 1


def choose_direction(r: Rect, s: Rect, axis: int) -> bool:
    """True for a forward sweep (Section 3.3's interval rule).

    The projections of ``r`` and ``s`` cut the axis into three intervals;
    sweep from the side whose outer interval is shorter, so that close
    pairs are met early and the cutoff drops fast.
    """
    points = sorted((r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis)))
    left = points[1] - points[0]
    right = points[3] - points[2]
    return left <= right


# ----------------------------------------------------------------------
# Sweep bookkeeping structures
# ----------------------------------------------------------------------


@dataclass(slots=True)
class AnchorScan:
    """Where one anchor's scan over the other sorted list stopped.

    ``from_r`` tells which side the anchor came from; ``anchor_pos`` is
    its position in its own sorted list; the scan covered positions
    ``[start, resume)`` of the *other* sorted list.
    """

    from_r: bool
    anchor_pos: int
    start: int
    resume: int


@dataclass(slots=True)
class ExpansionRecord:
    """Everything needed to compensate one aggressively-expanded pair.

    Holds the parent pair, the sorted child lists (sorted once, in stage
    one — compensation must not pay for sorting again), each anchor's
    scan window, and the cutoffs that were in force, so a later stage
    knows exactly which child pairs were never examined (beyond
    ``resume``) and which were examined but pruned on real distance
    (inside the window, when ``real_cutoff`` is not ``None``).
    ``real_cutoff is None`` means the in-window real-distance pruning was
    *safe* (done with qDmax) and never needs revisiting.

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
    anchors: list[AnchorScan]
    axis_cutoff: float
    real_cutoff: float | None
    keys_r: list[float]
    keys_s: list[float]

    def fully_swept(self) -> bool:
        """True when no anchor has unexamined positions left."""
        for scan in self.anchors:
            other = self.sorted_s if scan.from_r else self.sorted_r
            if scan.resume < len(other):
                return False
        return True


# ----------------------------------------------------------------------
# The sweeper
# ----------------------------------------------------------------------


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
    short for a vector call to pay (see :mod:`repro.kernels`).
    """

    def __init__(
        self,
        instr: Instruments,
        optimize_axis: bool = True,
        optimize_direction: bool = True,
        flat=None,
    ) -> None:
        self._instr = instr
        #: Optional :class:`repro.kernels.flat.FlatHotPath`.  When set,
        #: node sides are sorted once per (node, axis, direction) out of
        #: the tree arena instead of per expansion; :meth:`_sort_side`
        #: serves everything else with the same items, keys and tie
        #: order.
        self._flat = flat
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
        record_real_cutoff: float | None = None,
    ) -> ExpansionRecord | None:
        """Sweep the children of pair ``(a, b)``.

        ``axis_limit`` bounds the scan along the sweeping axis (qDmax in
        B-KDJ, eDmax in the aggressive stage); ``real_limit`` filters on
        real distance before emitting.  Both tighten as the sweep
        proceeds.

        Contract: the state the two cutoff closures read may change
        *only* through the ``emit`` callback (true for every engine —
        the closures read result/main queues that nothing else touches
        while the sweeper runs).  The scan loops rely on this to cache
        each limit as a float and re-read it only after an emit, which
        is observably identical to re-reading per pair but removes the
        dominant per-pair cost of the sweep.

        When ``keep_record`` is set, returns an :class:`ExpansionRecord`
        whose ``real_cutoff`` is ``record_real_cutoff`` — pass the real
        pruning cutoff *if it was unsafe* (AM-IDJ's eDmax) or ``None`` if
        it was safe (AM-KDJ's qDmax), which controls whether a later
        compensation pass rechecks in-window pairs.
        """
        select_cutoff = min(axis_limit(), real_limit())
        axis, forward = self._plan(a, b, select_cutoff)
        sorted_r, keys_r = self._side(a, children_r, True, axis, forward)
        sorted_s, keys_s = self._side(b, children_s, False, axis, forward)

        anchors: list[AnchorScan] | None = [] if keep_record else None
        self._merge_sweep(
            sorted_r, keys_r, sorted_s, keys_s,
            axis, forward, axis_limit, real_limit, emit, anchors,
        )
        if not keep_record:
            return None
        assert anchors is not None
        return ExpansionRecord(
            a=a,
            b=b,
            distance=pair_distance,
            axis=axis,
            forward=forward,
            sorted_r=sorted_r,
            sorted_s=sorted_s,
            anchors=anchors,
            axis_cutoff=axis_limit(),
            real_cutoff=record_real_cutoff,
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
        new_record_real_cutoff: float | None = None,
    ) -> None:
        """Re-sweep only what earlier stages skipped (Algorithm 3).

        For every anchor, positions beyond its stored ``resume`` index
        were never examined and are swept now under the new cutoffs.
        Positions inside the old window were already examined; they are
        revisited only when the record's ``real_cutoff`` is not ``None``
        (AM-IDJ: stage one pruned on real distance > eDmax and those
        pairs must now be recovered) — and then only pairs whose real
        distance exceeded the old cutoff are emitted, so nothing is
        emitted twice.

        The record is updated in place (resume indices and cutoffs) so it
        can serve yet another stage.
        """
        old_real = record.real_cutoff
        axis, forward = record.axis, record.forward
        instr = self._instr
        axis_lim = axis_limit()
        real_lim = real_limit()
        for scan in record.anchors:
            if scan.from_r:
                own = record.sorted_r
                other = record.sorted_s
                other_keys = record.keys_s
            else:
                own = record.sorted_s
                other = record.sorted_r
                other_keys = record.keys_r
            anchor = own[scan.anchor_pos]
            anchor_rect = anchor.rect
            # The anchor's far edge in sweep coordinates.
            anchor_end = anchor_rect.hi(axis) if forward else -anchor_rect.lo(axis)
            begin = scan.start if old_real is not None else scan.resume
            old_resume = scan.resume
            n = len(other)
            axis_checked = 0
            real_done = 0
            new_resume = n
            for idx in range(begin, n):
                axis_checked += 1
                if other_keys[idx] - anchor_end > axis_lim:
                    new_resume = idx
                    break
                real = min_distance(anchor_rect, other[idx].rect)
                real_done += 1
                if idx < old_resume:
                    # Examined before: recover only what the old (unsafe)
                    # real cutoff rejected.
                    assert old_real is not None
                    if real > old_real and real <= real_lim:
                        self._emit_oriented(anchor, other[idx], real, scan.from_r, emit)
                        axis_lim = axis_limit()
                        real_lim = real_limit()
                elif real <= real_lim:
                    self._emit_oriented(anchor, other[idx], real, scan.from_r, emit)
                    axis_lim = axis_limit()
                    real_lim = real_limit()
            instr.count_axis(axis_checked)
            instr.count_real(real_done)
            scan.resume = max(old_resume, new_resume)
        record.axis_cutoff = axis_limit()
        record.real_cutoff = new_record_real_cutoff

    # -- internals ------------------------------------------------------

    def _side(
        self, item: Item, children: list[Item], side_r: bool,
        axis: int, forward: bool
    ) -> tuple[list[Item], list[float]]:
        """One expansion side: sorted children and their sweep keys.

        The flat hot path serves node sides from its per-(node, axis,
        direction) cache — a stable sort over arena coordinates, same
        tie order and key floats as :meth:`_sort_side` — and the sort
        CPU charge is applied either way, so the simulated clock cannot
        tell the two apart.  Single-object sides, arena misses and
        sweepers built without a flat path sort here.
        """
        flat = self._flat
        if flat is not None:
            cached = flat.sorted_side(side_r, item, children, axis, forward)
            if cached is not None:
                self._instr.charge_sort(len(children))
                return cached
        return self._sort_side(children, axis, forward)

    def _sort_side(
        self, items: list[Item], axis: int, forward: bool
    ) -> tuple[list[Item], list[float]]:
        """Sort one child list and return it with its sweep keys.

        Decorate-sort-undecorate on (key, original index): ties order by
        index, which is exactly the stable order ``sorted(key=...)``
        produces, and each key is computed once instead of per
        comparison.  The keys list is what the scan loops index into.
        """
        self._instr.charge_sort(len(items))
        if forward:
            keyed = sorted((it.rect.lo(axis), i) for i, it in enumerate(items))
        else:
            keyed = sorted((-it.rect.hi(axis), i) for i, it in enumerate(items))
        return [items[i] for _, i in keyed], [k for k, _ in keyed]

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
        anchors: list[AnchorScan] | None,
    ) -> None:
        """Algorithm 1's PlaneSweep loop over both sorted child lists.

        Each anchor's SweepPruning scan runs inline: the sweep fires once
        per anchor across every expansion, and at the ~2-pair average
        scan length a per-anchor call (argument packing, attribute
        reloads) would dominate.  :meth:`compensate` resumes the
        recorded anchors through its own loop; the two must stay
        observably identical.
        """
        i = j = 0
        n_r, n_s = len(sorted_r), len(sorted_s)
        sqrt = math.sqrt
        inf = math.inf
        # The cutoff closures may only move via ``emit`` (see
        # :meth:`expand`); when both are the same callable (B-KDJ passes
        # qDmax twice) one read serves both limits.
        same_limit = axis_limit is real_limit
        # The per-anchor counter flush inlined from ``count_axis`` +
        # ``count_real`` (hot: it fires once per anchor at a ~2-pair
        # average scan length), preserving their exact charge order.
        instr = self._instr
        disk = instr.disk
        cost_model = disk.cost_model
        c_axis = cost_model.cpu_axis_distance
        c_real = cost_model.cpu_real_distance
        charge = disk.charge_cpu
        while i < n_r and j < n_s:
            from_r = keys_r[i] <= keys_s[j]
            if from_r:
                anchor, own_pos = sorted_r[i], i
                start = j
                other, other_keys = sorted_s, keys_s
                i += 1
            else:
                anchor, own_pos = sorted_s[j], j
                start = i
                other, other_keys = sorted_r, keys_r
                j += 1
            anchor_rect = anchor.rect
            a_xmin = anchor_rect.xmin
            a_ymin = anchor_rect.ymin
            a_xmax = anchor_rect.xmax
            a_ymax = anchor_rect.ymax
            if forward:
                anchor_end = a_xmax if axis == 0 else a_ymax
            else:
                anchor_end = -(a_xmin if axis == 0 else a_ymin)
            n = len(other)
            axis_lim = axis_limit()
            real_lim = axis_lim if same_limit else real_limit()
            stop = n
            broke = False
            for idx in range(start, n):
                # Unclamped gap: for the nonnegative limits the engines
                # pass, ``raw > limit`` and ``max(0, raw) > limit`` are the
                # same test.
                if other_keys[idx] - anchor_end > axis_lim:
                    stop = idx
                    broke = True
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
                    if from_r:
                        emit(anchor, m, real)
                    else:
                        emit(m, anchor, real)
                    axis_lim = axis_limit()
                    real_lim = axis_lim if same_limit else real_limit()
            # Per-anchor flush, in ``count_axis`` + ``count_real`` order:
            # the simulated clock is a float accumulator, so aggregating
            # the charges across anchors would drift at the ulp level.
            scanned = stop - start
            n_axis = scanned + 1 if broke else scanned
            instr.axis_distance_computations += n_axis
            charge(n_axis * c_axis)
            if scanned:
                instr.real_distance_computations += scanned
                charge(scanned * c_real)
            if anchors is not None:
                anchors.append(AnchorScan(from_r, own_pos, start, stop))
