"""Public API for spatial distance joins.

Typical usage::

    from repro import RTree, k_distance_join
    tree_r = RTree.bulk_load(hotel_rects)
    tree_s = RTree.bulk_load(restaurant_rects)
    result = k_distance_join(tree_r, tree_s, k=10)          # AM-KDJ
    for distance, hotel_id, restaurant_id in result.results:
        ...

    from repro import incremental_distance_join
    stream = incremental_distance_join(tree_r, tree_s)      # AM-IDJ
    first_batch = stream.next_batch(100)
    more = stream.next_batch(100)       # keeps going, no preset k

Every run executes on a fresh simulated environment (disk clock, buffer
pools, queues), so ``result.stats`` carries the paper's metrics for that
run alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.core import amidj as amidj_mod
from repro.core import amkdj as amkdj_mod
from repro.core import bkdj as bkdj_mod
from repro.core import hs as hs_mod
from repro.core import sjsort as sjsort_mod
from repro.core.base import EngineOptions, JoinContext
from repro.core.pairs import ResultPair
from repro.core.stats import JoinStats
from repro.resilience.deadline import Deadline
from repro.resilience.errors import StaleStreamError
from repro.resilience.faults import FaultPlan
from repro.rtree.tree import RTree, check_k
from repro.storage.cost import (
    CostModel,
    DEFAULT_BUFFER_MEMORY,
    DEFAULT_QUEUE_MEMORY,
)

KDJ_ALGORITHMS = ("hs", "bkdj", "amkdj", "sjsort", "nlj")
IDJ_ALGORITHMS = ("hs", "amidj")
#: Where the parallel engine's workers run (``JoinConfig.parallel_mode``).
PARALLEL_MODES = ("shm-process", "shm-thread", "shm-serial")


@dataclass(frozen=True, slots=True)
class JoinConfig:
    """Configuration shared by all runs of a :class:`JoinRunner`.

    Attributes mirror the paper's experimental knobs: queue memory and
    R-tree buffer sizes (512 KB defaults), the plane-sweep optimizations,
    the eDmax override for Figure 14, and the cost model.

    No field picks the distance-kernel backend: HS's child-list
    batches and the parallel engine's block crosses run on NumPy when it
    imports, else in pure Python (:mod:`repro.kernels`), with identical
    results and simulated costs either way.  Nor does any field set a
    pop width: every best-first engine pops one queue head per
    iteration, as in the paper.

    ``parallel`` (N > 1) runs AM-KDJ on the parallel engine
    (:mod:`repro.parallel`) with N workers; the other k-distance joins
    run sequentially whatever its value.  ``parallel_mode`` picks where
    the engine's workers run: ``"shm-process"`` (the default; processes
    attached zero-copy to a shared-memory arena), ``"shm-thread"``
    (threads over plain buffers) or ``"shm-serial"`` (the calling
    thread drains every task; deterministic debugging).  Any other
    value raises ``ValueError``.

    ``trace_path`` turns on the :mod:`repro.obs` tracing subsystem for
    every run of the runner: structured events (stage spans, eDmax
    updates, queue splits/spills/swap-ins, …) stream to that file —
    JSONL by default, a Chrome ``trace_event`` JSON when the path ends
    in ``.json`` or ``trace_format="chrome"``.  ``collect_metrics``
    enables the metrics registry (result-distance and queue-depth
    histograms, per-stage work deltas) whose snapshot lands in
    ``JoinStats.extra``; tracing implies it.

    Live plane (:mod:`repro.obs.live`): ``status_path`` publishes an
    atomically-swapped JSON status file every ``status_interval_s``
    (progress fraction + ETA, metrics snapshot, per-worker telemetry —
    tail it with ``python -m repro top``); ``metrics_port`` additionally
    serves ``GET /metrics`` (Prometheus text) and ``GET /progress`` on
    localhost for the duration of the run (``0`` binds an ephemeral
    port); ``profile_path`` runs the span-aware sampling profiler and
    writes a collapsed-stack (flamegraph) file at close.  All three off
    (the default) builds no plane at all — no threads, no per-pair
    cost.

    Resilience knobs (:mod:`repro.resilience`): ``deadline_s`` bounds a
    run's wall time — every engine's expansion loop checks it
    cooperatively and raises the typed
    :class:`~repro.resilience.errors.JoinDeadlineExceeded` on expiry.
    ``worker_timeout_s`` bounds how long a parallel worker may go
    silent (or take to come up); a worker that crashes, is killed or
    times out loses its tasks to the survivors, and the parent drains
    them itself once no worker is left, so the parallel join returns
    the same answer or a typed error — never a silently incomplete
    top-k.  ``fault_plan`` arms the deterministic fault-injection
    harness (:class:`~repro.resilience.faults.FaultPlan`).

    Checkpoint/resume (:mod:`repro.resilience.checkpoint`):
    ``checkpoint_path`` makes the run snapshot its full join state to
    that file — atomically replaced, CRC-checked — every
    ``checkpoint_every_pairs`` emitted pairs and/or
    ``checkpoint_every_s`` seconds (default: every 5 s), and once more
    on a graceful SIGINT/SIGTERM shutdown.  ``resume_from`` restores a
    checkpoint and continues the join: engines with exact state capture
    (hs, bkdj, amkdj, amidj and both incremental streams) produce the
    byte-identical remaining result stream; replay engines (sjsort,
    nlj) re-run from scratch.  With ``checkpoint_path`` unset no
    checkpoint machinery is allocated and every reported counter is
    unchanged.
    """

    queue_memory: int = DEFAULT_QUEUE_MEMORY
    buffer_memory: int = DEFAULT_BUFFER_MEMORY
    cost_model: CostModel | None = None
    rho: float | None = None
    optimize_axis: bool = True
    optimize_direction: bool = True
    distance_queue_all_pairs: bool = False
    expansion_policy: str = "level"
    hs_insert_pruning: bool = True
    edmax: float | None = None
    adaptive_edmax: bool = False
    model_queue_boundaries: bool = True
    spill_dir: str | None = None
    initial_k: int = 1000
    edmax_schedule: tuple[float, ...] | None = None
    parallel: int = 1
    parallel_mode: str = "shm-process"
    trace_path: str | None = None
    trace_format: str | None = None
    collect_metrics: bool = False
    status_path: str | None = None
    status_interval_s: float = 0.25
    metrics_port: int | None = None
    profile_path: str | None = None
    deadline_s: float | None = None
    worker_timeout_s: float | None = None
    fault_plan: "FaultPlan | None" = None
    checkpoint_path: str | None = None
    checkpoint_every_pairs: int | None = None
    checkpoint_every_s: float | None = None
    resume_from: str | None = None

    def __post_init__(self) -> None:
        if self.parallel_mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel_mode {self.parallel_mode!r}; "
                f"pick one of {PARALLEL_MODES}"
            )

    def engine_options(self) -> EngineOptions:
        return EngineOptions(
            optimize_axis=self.optimize_axis,
            optimize_direction=self.optimize_direction,
            distance_queue_all_pairs=self.distance_queue_all_pairs,
            expansion_policy=self.expansion_policy,
            hs_insert_pruning=self.hs_insert_pruning,
        )


@dataclass(slots=True)
class JoinResult:
    """Results plus the metric snapshot of the run that produced them."""

    results: list[ResultPair]
    stats: JoinStats

    @property
    def distances(self) -> list[float]:
        return [pair.distance for pair in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ResultPair]:
        return iter(self.results)


class JoinRunner:
    """Runs distance joins between two indexed datasets.

    A runner is cheap; it holds the trees and configuration, and builds a
    fresh :class:`~repro.core.base.JoinContext` per run.
    """

    def __init__(
        self,
        tree_r: RTree,
        tree_s: RTree,
        config: JoinConfig | None = None,
    ) -> None:
        self.tree_r = tree_r
        self.tree_s = tree_s
        self.config = config or JoinConfig()

    # ------------------------------------------------------------------

    def _open_tracer(self):
        """(tracer, owned) for one run; ``owned`` means the run closes it."""
        if self.config.trace_path is not None:
            from repro.obs import tracer_for

            return tracer_for(self.config.trace_path, self.config.trace_format), True
        return None, False

    def _metrics(self, tracer, plane=None):
        # A live plane implies metrics: /metrics and the status file
        # serve the registry snapshot.
        if self.config.collect_metrics or tracer is not None or plane is not None:
            from repro.obs.metrics import MetricsRegistry

            return MetricsRegistry()
        return None

    def _open_plane(self):
        """The run's live plane (publisher/exporter/profiler), or None."""
        from repro.obs.live import LivePlane

        return LivePlane.from_config(self.config)

    def _context(
        self, tracer=None, metrics=None, live=None, checkpoint=None
    ) -> JoinContext:
        cfg = self.config
        # A fresh deadline per run: the budget covers one join, not the
        # runner's lifetime.
        deadline = Deadline(cfg.deadline_s) if cfg.deadline_s is not None else None
        return JoinContext(
            self.tree_r,
            self.tree_s,
            queue_memory=cfg.queue_memory,
            buffer_memory=cfg.buffer_memory,
            cost_model=cfg.cost_model,
            rho=cfg.rho,
            options=cfg.engine_options(),
            model_queue_boundaries=cfg.model_queue_boundaries,
            spill_dir=cfg.spill_dir,
            tracer=tracer,
            metrics=metrics,
            deadline=deadline,
            faults=cfg.fault_plan,
            live=live,
            checkpoint=checkpoint,
        )

    def _open_checkpoint(
        self, algorithm: str, k: int, tracer, metrics, modes=("exact", "replay")
    ):
        """(CheckpointManager | None, resume payload | None) for one run.

        With neither ``checkpoint_path`` nor ``resume_from`` set this is
        ``(None, None)`` and nothing is imported or allocated — the
        counter-invariance guarantee.  A resume payload is loaded,
        CRC-verified and validated against this join's fingerprint and
        the resume ``modes`` the caller can execute; the manager (if
        any) inherits the checkpoint's watermark so subsequent snapshots
        count the whole logical stream.
        """
        cfg = self.config
        if cfg.checkpoint_path is None and cfg.resume_from is None:
            return None, None
        from repro.resilience.checkpoint import CheckpointManager, join_fingerprint

        fingerprint = join_fingerprint(self.tree_r, self.tree_s, algorithm, k)
        resume_payload = None
        if cfg.resume_from is not None:
            from repro.resilience.recovery import load_checkpoint, validate_checkpoint

            resume_payload = load_checkpoint(cfg.resume_from, faults=cfg.fault_plan)
            validate_checkpoint(
                resume_payload,
                algorithm=algorithm,
                k=k,
                fingerprint=fingerprint,
                modes=modes,
            )
        manager = CheckpointManager.from_config(
            self.config,
            algorithm=algorithm,
            k=k,
            fingerprint=fingerprint,
            tracer=tracer,
            metrics=metrics,
        )
        if manager is not None and resume_payload is not None:
            manager.note_emit(resume_payload.get("watermark", 0))
            manager._last_emit_mark = manager.emitted
        return manager, resume_payload

    @staticmethod
    def _merge_resume_prefix(stats: JoinStats, resume_payload: dict | None) -> None:
        """Fold the pre-crash stats prefix into a resumed run's stats.

        Only exact-state resumes merge: a replay engine re-does (and
        re-counts) all the work itself.  The prefix's ``results``,
        ``compensation_stages`` and ``wall_time`` are zeroed first —
        the resumed run already reports the full logical values for
        those (results restored into its lists, stage flags re-derived,
        wall clock restarted) and summing or maxing them would double
        count.
        """
        if resume_payload is None or resume_payload.get("mode") != "exact":
            return
        prefix = resume_payload["stats"]
        prefix.results = 0
        prefix.compensation_stages = 0
        prefix.wall_time = 0.0
        stats.merge(prefix)

    # ------------------------------------------------------------------

    def kdj(self, k: int, algorithm: str = "amkdj", dmax: float | None = None) -> JoinResult:
        """k-distance join with the chosen algorithm.

        ``dmax`` is only consulted by ``sjsort`` (its favorable a-priori
        cutoff); when omitted it is computed by the exact oracle.  ``k``
        must be a positive integer (``ValueError`` otherwise).  AM-KDJ
        with ``config.parallel > 1`` runs on the parallel engine; every
        other algorithm runs sequentially.
        """
        check_k(k)
        if algorithm not in KDJ_ALGORITHMS:
            raise ValueError(
                f"unknown KDJ algorithm {algorithm!r}; pick one of {KDJ_ALGORITHMS}"
            )
        if algorithm == "amkdj" and self.config.parallel > 1:
            from repro.parallel.engine import parallel_kdj

            return parallel_kdj(self.tree_r, self.tree_s, k, self.config)
        tracer, owned = self._open_tracer()
        plane = self._open_plane()
        if plane is not None:
            tracer = plane.ensure_tracer(tracer)
        metrics = self._metrics(tracer, plane)
        checkpoint, resume_payload = self._open_checkpoint(
            algorithm, k, tracer, metrics
        )
        # Replay engines re-run from scratch; only exact-state engines
        # receive restored state.
        resume_state = None
        if resume_payload is not None and resume_payload.get("mode") == "exact":
            resume_state = resume_payload["engine"]
        ctx = self._context(
            tracer,
            metrics,
            live=plane.progress if plane is not None else None,
            checkpoint=checkpoint,
        )
        if plane is not None:
            plane.attach_metrics(metrics)
            plane.attach_checkpoint(checkpoint)
            plane.progress.start(algorithm, k)
            queue, queue_stats = ctx.main_queue, ctx.main_queue.stats
            plane.set_work_source(
                lambda: (queue_stats.pops, queue_stats.pops + len(queue))
            )
            plane.start(tracer)
        started = time.perf_counter()
        try:
            if algorithm == "hs":
                results, stats = hs_mod.hs_kdj(ctx, k, resume=resume_state)
            elif algorithm == "bkdj":
                results, stats = bkdj_mod.bkdj(ctx, k, resume=resume_state)
            elif algorithm == "amkdj":
                results, stats = amkdj_mod.amkdj(
                    ctx,
                    k,
                    edmax=self.config.edmax,
                    adaptive=self.config.adaptive_edmax,
                    resume=resume_state,
                )
            elif algorithm == "nlj":
                from repro.core import nested_loop

                results, stats = nested_loop.nested_loop_kdj(ctx, k)
            else:
                cutoff = dmax if dmax is not None else self.true_dmax(k)
                results, stats = sjsort_mod.sj_sort(ctx, k, cutoff)
            if metrics is not None and tracer is not None and tracer.enabled:
                # One final registry snapshot into the trace, so reports
                # can derive distribution percentiles offline.
                tracer.counter("metrics:final", **metrics.snapshot())
        finally:
            # Close the plane first: its final snapshot still reads the
            # live queue and registry.
            if plane is not None:
                plane.close()
            if checkpoint is not None:
                checkpoint.close()
            ctx.close()
            if owned:
                tracer.close()
        self._merge_resume_prefix(stats, resume_payload)
        stats.wall_time = time.perf_counter() - started
        return JoinResult(results, stats)

    def idj(self, algorithm: str = "amidj") -> "IncrementalJoin":
        """Incremental distance join stream with the chosen algorithm."""
        if algorithm not in IDJ_ALGORITHMS:
            raise ValueError(
                f"unknown IDJ algorithm {algorithm!r}; pick one of {IDJ_ALGORITHMS}"
            )
        tracer, owned = self._open_tracer()
        plane = self._open_plane()
        if plane is not None:
            tracer = plane.ensure_tracer(tracer)
        metrics = self._metrics(tracer, plane)
        # An incremental stream has no preset k; fingerprint with k=0.
        checkpoint, resume_payload = self._open_checkpoint(
            algorithm, 0, tracer, metrics, modes=("exact",)
        )
        resume_state = (
            resume_payload["engine"] if resume_payload is not None else None
        )
        ctx = self._context(
            tracer,
            metrics,
            live=plane.progress if plane is not None else None,
            checkpoint=checkpoint,
        )
        if plane is not None:
            plane.attach_metrics(metrics)
            plane.attach_checkpoint(checkpoint)
            # Incremental streams have no preset k; progress reports the
            # produced count and queue work fraction only.
            plane.progress.start(algorithm, 0)
            queue, queue_stats = ctx.main_queue, ctx.main_queue.stats
            plane.set_work_source(
                lambda: (queue_stats.pops, queue_stats.pops + len(queue))
            )
            plane.start(tracer)
        if algorithm == "hs":
            generator = hs_mod.hs_idj(ctx, resume=resume_state)
            name = "hs-idj"
            state = None
        else:
            state = amidj_mod.AMIDJState()
            schedule = (
                list(self.config.edmax_schedule)
                if self.config.edmax_schedule is not None
                else None
            )
            generator = amidj_mod.amidj(
                ctx,
                initial_k=self.config.initial_k,
                edmax_schedule=schedule,
                state=state,
                resume=resume_state,
            )
            name = "am-idj"
        return IncrementalJoin(ctx, generator, name, state,
                               owned_tracer=tracer if owned else None,
                               plane=plane,
                               checkpoint=checkpoint,
                               resume_payload=resume_payload)

    # ------------------------------------------------------------------

    def true_dmax(self, k: int) -> float:
        """Exact k-th pair distance, via an uncharged oracle run (B-KDJ)."""
        with self._context() as ctx:
            results, _ = bkdj_mod.bkdj(ctx, k)
        if not results:
            return 0.0
        return results[-1].distance


class IncrementalJoin:
    """A pull-based incremental join with live metric snapshots."""

    def __init__(
        self,
        ctx: JoinContext,
        generator: Iterator[ResultPair],
        name: str,
        state: "amidj_mod.AMIDJState | None",
        owned_tracer=None,
        plane=None,
        checkpoint=None,
        resume_payload: dict | None = None,
    ) -> None:
        self._ctx = ctx
        self._generator = generator
        self._name = name
        self._state = state
        self._produced = 0
        self._started = time.perf_counter()
        self._closed = False
        self._owned_tracer = owned_tracer
        self._plane = plane
        self._checkpoint = checkpoint
        self._resume_payload = resume_payload
        # A write to either tree after this makes the stream stale.
        self._versions = (ctx.tree_r.version, ctx.tree_s.version)
        if resume_payload is not None:
            # The stream's consumer-facing produced count spans the
            # whole logical join, checkpointed prefix included.
            self._produced = resume_payload.get("watermark", 0)

    def _check_current(self) -> None:
        """Close and raise :class:`StaleStreamError` once a tree was written."""
        versions = (self._ctx.tree_r.version, self._ctx.tree_s.version)
        if versions != self._versions and not self._closed:
            self.close()
            raise StaleStreamError(f"{self._name}: a tree was written after it opened")

    def close(self) -> None:
        """Release the run's resources (spill files); idempotent.

        Called automatically when the stream is exhausted; callers that
        abandon a stream early should call it (or use the stream as a
        context manager) so real-spill queues leave no files behind.
        """
        if not self._closed:
            self._closed = True
            # Close the generator first: its teardown emits the final
            # trace span ends, which must land before the sinks flush.
            self._generator.close()
            if self._plane is not None:
                # Final status snapshot while the queue is still live.
                self._plane.close()
            if self._checkpoint is not None:
                self._checkpoint.close()
            self._ctx.close()
            if self._owned_tracer is not None:
                self._owned_tracer.close()

    def __enter__(self) -> "IncrementalJoin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[ResultPair]:
        self._check_current()
        for pair in self._generator:
            self._produced += 1
            yield pair
            self._check_current()
        self.close()

    def next_batch(self, n: int) -> list[ResultPair]:
        """Pull up to ``n`` further results (fewer only at exhaustion)."""
        self._check_current()
        batch: list[ResultPair] = []
        for pair in self._generator:
            batch.append(pair)
            if len(batch) == n:
                break
        self._produced += len(batch)
        if len(batch) < n:
            self.close()
        return batch

    def stats(self) -> JoinStats:
        """Metric snapshot covering everything pulled so far."""
        stats = self._ctx.make_stats(self._name, self._produced, self._produced)
        JoinRunner._merge_resume_prefix(stats, self._resume_payload)
        stats.wall_time = time.perf_counter() - self._started
        if self._state is not None:
            stats.compensation_stages = self._state.compensations
            stats.compensation_peak = self._state.comp_records_peak
            stats.edmax_initial = self._state.edmax
        return stats


# ----------------------------------------------------------------------
# Convenience functions
# ----------------------------------------------------------------------


def k_distance_join(
    tree_r: RTree,
    tree_s: RTree,
    k: int,
    algorithm: str = "amkdj",
    config: JoinConfig | None = None,
    dmax: float | None = None,
    parallel: int | None = None,
) -> JoinResult:
    """One-shot k nearest pairs of ``tree_r`` x ``tree_s``.

    ``parallel=N`` (N > 1) runs AM-KDJ on the parallel engine with N
    workers; it returns the same result set as the sequential run.
    """
    if parallel is not None:
        config = replace(config or JoinConfig(), parallel=parallel)
    return JoinRunner(tree_r, tree_s, config).kdj(k, algorithm, dmax=dmax)


def incremental_distance_join(
    tree_r: RTree,
    tree_s: RTree,
    algorithm: str = "amidj",
    config: JoinConfig | None = None,
) -> IncrementalJoin:
    """Incremental (no preset k) distance join stream."""
    return JoinRunner(tree_r, tree_s, config).idj(algorithm)


def k_self_distance_join(
    tree: RTree,
    k: int,
    algorithm: str = "amidj",
    config: JoinConfig | None = None,
) -> JoinResult:
    """The k closest *distinct* pairs within one dataset.

    A self-join of ``tree`` with itself: identity pairs are excluded and
    each unordered pair is reported once (``ref_r < ref_s``).  Runs on an
    incremental engine because each kept pair consumes two stream
    results (both orderings appear), so the required stream length is
    not known up front.
    """
    check_k(k)
    stream = JoinRunner(tree, tree, config).idj(algorithm)
    results: list[ResultPair] = []
    for pair in stream:
        if pair.ref_r < pair.ref_s:
            results.append(pair)
            if len(results) == k:
                break
    stream.close()
    stats = stream.stats()
    stats.algorithm = f"self-{stats.algorithm}"
    stats.k = k
    stats.results = len(results)
    return JoinResult(results, stats)
