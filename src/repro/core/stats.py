"""Metrics and instrumentation for join runs.

The paper evaluates algorithms on three primary metrics (Section 5.1):

1. number of (real) distance computations,
2. number of main-queue insertions,
3. response time — reproduced here as the simulated clock (device I/O
   plus modeled CPU), with wall-clock time recorded alongside.

plus R-tree node accesses (Table 2, buffered and unbuffered) and axis
distance computations (Figure 11).  ``Instruments`` is the single choke
point the engines route all distance computations and node fetches
through, so no metric can silently drift out of sync with the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.geometry.distances import axis_distance, min_distance
from repro.geometry.rect import Rect
from repro.kernels import resolve_backend
from repro.obs.metrics import GAUGE_KEY_SUFFIX
from repro.obs.tracer import NULL_TRACER
from repro.storage.disk import SimulatedDisk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import NullTracer, Tracer
    from repro.rtree.tree import TreeAccessor


@dataclass(slots=True)
class JoinStats:
    """Metric snapshot for one join run."""

    algorithm: str = ""
    k: int = 0
    results: int = 0
    real_distance_computations: int = 0
    axis_distance_computations: int = 0
    queue_insertions: int = 0
    distance_queue_insertions: int = 0
    node_accesses: int = 0
    node_accesses_unbuffered: int = 0
    response_time: float = 0.0
    io_time: float = 0.0
    cpu_time: float = 0.0
    wall_time: float = 0.0
    queue_peak_size: int = 0
    queue_splits: int = 0
    queue_swap_ins: int = 0
    queue_spilled_entries: int = 0
    compensation_stages: int = 0
    compensation_peak: int = 0
    edmax_initial: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    #: Counter fields summed by :meth:`merge` (work adds up across
    #: workers); the remaining numeric fields are peaks and are maxed.
    _SUMMED = (
        "results",
        "real_distance_computations",
        "axis_distance_computations",
        "queue_insertions",
        "distance_queue_insertions",
        "node_accesses",
        "node_accesses_unbuffered",
        "response_time",
        "io_time",
        "cpu_time",
        "queue_splits",
        "queue_swap_ins",
        "queue_spilled_entries",
        "compensation_stages",
    )
    _MAXED = (
        "wall_time",
        "queue_peak_size",
        "compensation_peak",
        "edmax_initial",
    )

    @property
    def total_distance_computations(self) -> int:
        """Real plus axis distance computations (Figure 11's y-axis)."""
        return self.real_distance_computations + self.axis_distance_computations

    def merge(self, other: "JoinStats") -> None:
        """Fold another run's metrics into this record, in place.

        Counters (distance computations, queue traffic, node accesses,
        modeled times) are summed — total work adds up across workers —
        while peaks (queue peak size, compensation peak, wall time) are
        maxed, since concurrent workers' peaks do not stack.  Numeric
        ``extra`` values are summed key-wise, except keys carrying the
        gauge marker (:data:`repro.obs.metrics.GAUGE_KEY_SUFFIX`), which
        are maxed — a point-in-time reading like queue depth or worker
        occupancy from N workers is a peak, not a total.  Non-numeric
        extras (labels like a worker mode) take the other record's
        value.  ``algorithm`` and ``k`` keep this record's values.
        """
        for name in self._SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self._MAXED:
            setattr(self, name, max(getattr(self, name), getattr(other, name)))
        for key, value in other.extra.items():
            mine = self.extra.get(key, 0.0)
            if isinstance(value, (int, float)) and isinstance(mine, (int, float)):
                if key.endswith(GAUGE_KEY_SUFFIX):
                    self.extra[key] = max(mine, value)
                else:
                    self.extra[key] = mine + value
            else:
                self.extra[key] = value

    def as_row(self) -> dict[str, float]:
        """Flat dictionary for table printing and regression baselines.

        Covers every scalar field — including the Figure 13 queue
        metrics (splits, swap-ins, spilled entries, peak size) and the
        Figure 14 adaptive ones (compensation stages/peak, the initial
        eDmax estimate) — so baselines built on rows see regressions in
        the multi-stage machinery, not just the flat totals.
        """
        return {
            "algorithm": self.algorithm,
            "k": self.k,
            "results": self.results,
            "dist_comps": self.real_distance_computations,
            "axis_comps": self.axis_distance_computations,
            "queue_insertions": self.queue_insertions,
            "distance_queue_insertions": self.distance_queue_insertions,
            "node_accesses": self.node_accesses,
            "node_accesses_unbuffered": self.node_accesses_unbuffered,
            "response_time": self.response_time,
            "wall_time": self.wall_time,
            "queue_peak_size": self.queue_peak_size,
            "queue_splits": self.queue_splits,
            "queue_swap_ins": self.queue_swap_ins,
            "queue_spilled_entries": self.queue_spilled_entries,
            "compensation_stages": self.compensation_stages,
            "compensation_peak": self.compensation_peak,
            "edmax_initial": self.edmax_initial,
        }


def _within(rect: Rect, rects: list[Rect], bound: float) -> list[tuple[int, float]]:
    """The scalar batch: ``(index, distance)`` for each rect within ``bound``."""
    out = []
    for i, other in enumerate(rects):
        real = min_distance(rect, other)
        if real <= bound:
            out.append((i, real))
    return out


class Instruments:
    """Counted, clock-charging operations shared by all join engines.

    Wraps the simulated disk and both trees' buffered accessors.  Engines
    never call :func:`min_distance` or fetch nodes directly; they go
    through this object so the counters and the simulated clock always
    agree with the work performed.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        accessor_r: "TreeAccessor",
        accessor_s: "TreeAccessor",
        tracer: "Tracer | NullTracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        live=None,
    ) -> None:
        self.disk = disk
        self.accessor_r = accessor_r
        self.accessor_s = accessor_s
        self.real_distance_computations = 0
        self.axis_distance_computations = 0
        self.main_queue = None  # attached by JoinContext once built
        # The kernels backend (repro.kernels) for HS's child-list
        # batches.  A backend only changes *how* distance arithmetic
        # runs; every logical distance is still counted and charged
        # here, so the simulated cost model is backend-invariant.
        self.kernels = resolve_backend()
        self.kernel_batches = 0
        self.kernel_batched_pairs = 0
        # Optional FlatHotPath (repro.kernels.flat), attached by
        # JoinContext.flat_path(): tagged batches then resolve to
        # zero-copy arena entry blocks instead of freshly packed copies.
        self.flat = None
        # Tagged packed-rect cache for mindist_batch: callers that batch
        # the same (immutable) rect list repeatedly — HS re-expanding a
        # node against many partners — pass a stable tag so the backend
        # packs the coordinate arrays once per node, not once per call.
        # Bounded LRU (insertion-ordered dict, hits re-inserted): an
        # unbounded incremental join must not grow it without limit.
        self._packs: dict[object, object] = {}
        self._packs_maxsize = 65536
        self.pack_cache_evictions = 0
        # Observability rides the same choke point as the counters: the
        # engines read the tracer and registry from here, so a run's
        # trace can never describe a different environment than its
        # stats.  Both default off (no-op tracer, no registry).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        # Live progress cell (repro.obs.live.JoinProgress) or None.  The
        # engines write it at result production and stage boundaries —
        # never per candidate pair — and only behind an `is not None`
        # check, so a run without the live plane pays one attribute load.
        self.live = live

    def attach_queue(self, queue) -> None:
        """Register the main queue whose counters :meth:`fill` snapshots.

        Queue-stat propagation is deliberately routed through this single
        helper: every engine builds its stats via ``ctx.make_stats`` →
        ``fill``, so the Figure 13 queue metrics (splits, swap-ins, peak
        size) cannot silently read zero for one engine but not another.
        """
        self.main_queue = queue

    # -- distances ------------------------------------------------------

    def real_distance(self, a: Rect, b: Rect) -> float:
        """Counted minimum (real) distance between two rectangles."""
        self.real_distance_computations += 1
        self.disk.charge_cpu(self.disk.cost_model.cpu_real_distance)
        return min_distance(a, b)

    def axis_dist(self, a: Rect, b: Rect, axis: int) -> float:
        """Counted axis distance between two rectangles."""
        self.count_axis()
        return axis_distance(a, b, axis)

    def count_axis(self, n: int = 1) -> None:
        """Count ``n`` axis-distance computations done inline by a sweep."""
        self.axis_distance_computations += n
        self.disk.charge_cpu(n * self.disk.cost_model.cpu_axis_distance)

    def count_real(self, n: int) -> None:
        """Count ``n`` real-distance computations done by a batched kernel.

        The charge is ``n * cpu_real_distance`` — per *logical* distance,
        exactly as if :meth:`real_distance` had run ``n`` times — so the
        simulated clock cannot drift between kernel backends.
        """
        if n:
            self.real_distance_computations += n
            self.disk.charge_cpu(n * self.disk.cost_model.cpu_real_distance)

    def mindist_batch(
        self, rect: Rect, rects: list[Rect], tag: object = None
    ) -> list[float]:
        """Counted batch of minimum distances from ``rect`` to ``rects``.

        ``tag``, when given, memoizes the packed coordinate arrays for
        this exact rect list (the caller promises the tag uniquely and
        stably identifies it for this join run), so repeated batches over
        the same node's children skip the array-building cost.
        """
        n = len(rects)
        self.count_real(n)
        if self._vector_call(n):
            return self.kernels.mindist_packed(rect, self._packed_for(rects, tag))
        return [min_distance(rect, other) for other in rects]

    def mindist_within(
        self, rect: Rect, rects: list[Rect], bound: float, tag: object = None
    ) -> list[tuple[int, float]]:
        """Counted bounded batch: ``(index, distance)`` pairs within ``bound``.

        Every one of the ``len(rects)`` logical distances is counted and
        charged — the bound only filters what crosses back into Python,
        not what the simulated cost model sees.  ``tag`` memoizes packing
        exactly as in :meth:`mindist_batch`.
        """
        n = len(rects)
        self.count_real(n)
        if self._vector_call(n):
            return self.kernels.mindist_packed_within(
                rect, self._packed_for(rects, tag), bound
            )
        return _within(rect, rects, bound)

    def mindist_within_items(
        self, rect: Rect, items, bound: float, tag: object = None
    ) -> list[tuple[int, float]]:
        """:meth:`mindist_within` over ``.rect``-bearing items.

        HS's whole-child-list batch.  Extracting the rect list is
        deferred until a backend actually needs it, so a tagged
        pack-cache hit — the common case when a node is re-expanded
        against many partners — touches no item at all.
        """
        n = len(items)
        self.count_real(n)
        if self._vector_call(n):
            packed = self._pack_get(tag) if tag is not None else None
            if packed is None:
                if self.flat is not None:
                    # Zero-copy arena slice of the node's children; same
                    # coordinate values in the same order as a fresh pack.
                    packed = self.flat.entry_block(tag, n)
                if packed is None:
                    packed = self.kernels.pack_rects([item.rect for item in items])
                if tag is not None:
                    self._pack_put(tag, packed)
            return self.kernels.mindist_packed_within(rect, packed, bound)
        return _within(rect, [item.rect for item in items], bound)

    def _vector_call(self, n: int) -> bool:
        """True, and counted, when ``n`` distances go to the backend at once.

        False sends the caller to the scalar loop: the pure-Python
        backend never takes a batch, NumPy only from ``min_window`` on.
        """
        kernels = self.kernels
        if not (kernels.batched and n >= kernels.min_window):
            return False
        self.kernel_batches += 1
        self.kernel_batched_pairs += n
        if self.metrics is not None:
            self.metrics.histogram("kernel_batch_size").observe(float(n))
        return True

    def _pack_get(self, tag: object):
        packs = self._packs
        packed = packs.get(tag)
        if packed is not None:
            del packs[tag]
            packs[tag] = packed
        return packed

    def _pack_put(self, tag: object, packed: object) -> None:
        packs = self._packs
        if tag in packs:
            del packs[tag]
        elif len(packs) >= self._packs_maxsize:
            del packs[next(iter(packs))]
            self.pack_cache_evictions += 1
        packs[tag] = packed

    def _packed_for(self, rects: list[Rect], tag: object):
        if tag is None:
            return self.kernels.pack_rects(rects)
        packed = self._pack_get(tag)
        if packed is None:
            packed = self.kernels.pack_rects(rects)
            self._pack_put(tag, packed)
        return packed

    # -- sorting --------------------------------------------------------

    def charge_sort(self, n: int) -> None:
        """Charge CPU for sorting ``n`` child entries before a sweep."""
        if n > 1:
            self.disk.charge_cpu(
                self.disk.cost_model.cpu_sort_per_element * n * math.log2(n)
            )

    # -- snapshotting ----------------------------------------------------

    def fill(self, stats: JoinStats) -> None:
        """Copy accumulated counters into a stats record."""
        stats.real_distance_computations = self.real_distance_computations
        stats.axis_distance_computations = self.axis_distance_computations
        stats.node_accesses = (
            self.accessor_r.physical_reads + self.accessor_s.physical_reads
        )
        stats.node_accesses_unbuffered = (
            self.accessor_r.logical_accesses + self.accessor_s.logical_accesses
        )
        stats.response_time = self.disk.clock
        stats.io_time = self.disk.io_time
        stats.cpu_time = self.disk.cpu_time
        if self.main_queue is not None:
            queue_stats = self.main_queue.stats
            stats.queue_insertions = queue_stats.insertions
            stats.queue_peak_size = queue_stats.peak_size
            stats.queue_splits = queue_stats.splits
            stats.queue_swap_ins = queue_stats.swap_ins
            stats.queue_spilled_entries = queue_stats.spilled_entries
            if queue_stats.spill_write_failures:
                # extras merge key-wise (summed), so merged runs'
                # failures aggregate like the other resilience counters.
                stats.extra["spill_write_failures"] = float(
                    queue_stats.spill_write_failures
                )
        if self.kernel_batches:
            # Sum-mergeable (JoinStats.merge adds numeric extras), so
            # merged runs' kernel telemetry aggregates correctly.
            stats.extra["kernels.batches"] = float(self.kernel_batches)
            stats.extra["kernels.batched_pairs"] = float(self.kernel_batched_pairs)
        if self.pack_cache_evictions:
            stats.extra["kernels.pack_cache_evictions"] = float(
                self.pack_cache_evictions
            )
        if self.metrics is not None:
            # Snapshot fields are all sum-mergeable by construction, so
            # JoinStats.merge aggregates worker registries correctly.
            stats.extra.update(self.metrics.snapshot())
