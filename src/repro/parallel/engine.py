"""The parallel partitioned distance-join engine.

Pipeline of one :func:`parallel_kdj` call:

1. **Partition** — vertical strips from the trees' top levels
   (:mod:`repro.parallel.partition`); every R object lands in exactly
   one strip, S objects are replicated into ``delta``-grown boundary
   strips so no qualifying pair can be lost.
2. **Execute** — one independent join worker per partition.  Each worker
   rebuilds partition-local R-trees and runs a sequential engine on its
   own simulated environment.  For the adaptive algorithms the worker is
   a *bounded sweep*: a within-distance join at the worker's cap plus a
   local sort — the shared bound turns per-partition top-k into a range
   join, the paper's own SJ-within-Dmax observation with the a-priori
   cutoff replaced by the Equation (3) estimate.  The exact baselines
   run a local top-k engine instead.  Workers run on a process pool
   (CPU-bound sweeps), a thread pool (simulated-I/O runs), or inline
   (``"serial"``, deterministic debugging).
3. **Share the bound** — the parent feeds every confirmed pair distance
   into a k-bounded :class:`~repro.parallel.merge.GlobalBound`; its
   cutoff (the global ``qDmax``) caps later-submitted workers.  Process
   workers get a frozen snapshot at submission, thread/serial workers
   re-read it live between pulls.
4. **Merge & verify** — per-partition runs are k-way heap-merged; the
   answer is accepted only if the merged k-th distance fits under every
   worker's cap (or every partition ran dry).  Otherwise the boundary
   strip ``delta`` doubles — at least up to the merged k-th distance —
   and the sweep re-runs.  The stage loop mirrors the paper's adaptive
   eDmax compensation: estimate optimistically, verify, widen only on
   actual failure.

Exactness: R objects are partitioned (never replicated), so a pair is
produced by exactly one worker and the merge needs no deduplication.
The union of per-partition top-k lists always contains a global top-k
(selection lemma); the only completeness risk is the distance cap, which
is precisely what step 4 verifies.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import itertools
import math
import multiprocessing
import sys
import threading
import time
from collections import Counter
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.pairs import ResultPair
from repro.core.stats import JoinStats
from repro.core import estimation
from repro.geometry.rect import Rect
from repro.obs.sinks import CollectSink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.merge import GlobalBound, merge_topk, pair_key
from repro.resilience.deadline import Deadline
from repro.resilience.errors import (
    PartitionFailedError,
    ReproError,
    StaleStreamError,
)
from repro.resilience.faults import trip_worker_faults
from repro.parallel.partition import (
    Partition,
    RawItem,
    assign_s_items,
    build_partitions,
    gather_items,
    tile_boundaries,
)
from repro.rtree.tree import RTree

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import JoinConfig, JoinResult

#: Initial boundary-strip width: the Equation (3) eDmax estimate times
#: this safety factor (the estimate is an expectation; a small margin
#: avoids a second stage on typical uniform data).  Kept tight: every
#: bit of margin is S replication into neighboring strips, i.e. extra
#: distance computations the sequential run never does.
STRIP_SAFETY = 1.15

#: Below this many R objects the partitioned engine falls back to the
#: sequential run — tiling overhead would dominate.
MIN_PARALLEL_OBJECTS = 64

#: Algorithms whose partition workers run the adaptive bounded sweep —
#: a within-distance join at the worker's cap followed by a local sort.
#: The shared bound turns the per-partition top-k into a range join, the
#: paper's own SJ-within-Dmax insight (Section 5.4) with the a-priori
#: cutoff replaced by the Equation (3) estimate plus adaptive stage
#: verification.  The exact baselines run a local top-k engine instead.
_SWEEP_ALGORITHMS = frozenset({"amkdj", "amidj"})


# ----------------------------------------------------------------------
# Partition worker (module level so process pools can pickle it)
# ----------------------------------------------------------------------

#: The pool worker's claimed telemetry slot (thread- and process-local;
#: a forked/spawned pool worker has its own copy).
_worker_telemetry = threading.local()


def _telemetry_init(arr, claim, workers: int) -> None:
    """Executor initializer: claim one telemetry slot for this worker.

    Pool workers have no fixed identity, so each claims the next slot
    from a shared counter on first spin-up; a rebuilt pool's workers
    wrap around and reuse the original slots.
    """
    from repro.parallel.shm import WorkerSlot

    try:
        with claim.get_lock():
            wid = claim.value
            claim.value += 1
        _worker_telemetry.slot = WorkerSlot(arr, wid % workers)
    except Exception:  # pragma: no cover - telemetry must never kill a worker
        _worker_telemetry.slot = None


def _run_partition(
    task: dict[str, Any], live_bound: GlobalBound | None = None
) -> tuple[list[ResultPair], float, bool, JoinStats, dict[str, Any] | None]:
    """Join one partition; returns (results, cap_used, exhausted, stats, trace).

    ``results`` are sorted by :func:`pair_key` and contain every
    partition pair with distance ``<= cap_used`` (``exhausted`` means
    the partition produced *all* its pairs — nothing was withheld).  A
    worker that stops at its k-th result reports ``cap_used = inf``:
    withholding pairs beyond the local top-k is always safe because a
    global top-k never needs more than k pairs from one partition.

    When ``task["trace"]`` is set the worker runs under a collecting
    tracer and ``trace`` carries its records home:
    ``{"track", "origin", "events"}`` — the parent re-emits the events
    on track ``index + 1`` with timestamps shifted onto its own clock
    (``origin`` is the worker's ``time.time()`` at ts 0; perf-counter
    origins are not comparable across processes, the epoch clock is).
    """
    from repro.core.api import JoinConfig, JoinRunner  # local: avoid cycle

    slot = getattr(_worker_telemetry, "slot", None)
    if slot is not None:
        # Partition granularity is the heartbeat cadence here: the tiled
        # engine's unit of work is one whole partition join.
        slot.beat(busy=True, depth=1)

    plan = task["config"].fault_plan
    if plan is not None:
        # Fire injected worker faults before any real work so a crash
        # costs nothing but the dispatch round-trip.
        trip_worker_faults(plan, task["index"])

    def cap_now() -> float:
        cap = task["cap"]
        if live_bound is not None:
            cap = min(cap, live_bound.cutoff)
        return cap

    tree_r = RTree.bulk_load(
        [(Rect(x0, y0, x1, y1), ref) for x0, y0, x1, y1, ref in task["r_items"]],
        page_size=task["page_size"],
        max_entries=task["max_entries"],
    )
    tree_s = RTree.bulk_load(
        [(Rect(x0, y0, x1, y1), ref) for x0, y0, x1, y1, ref in task["s_items"]],
        page_size=task["page_size"],
        max_entries=task["max_entries"],
    )
    config: JoinConfig = task["config"]
    k: int = task["k"]
    algorithm: str = task["algorithm"]
    collector: CollectSink | None = None
    worker_tracer: Tracer | None = None
    if task.get("trace"):
        collector = CollectSink()
        worker_tracer = Tracer([collector])
    runner = JoinRunner(tree_r, tree_s, config, tracer=worker_tracer)

    if algorithm in _SWEEP_ALGORITHMS:
        from repro.core.variants import within_distance_join

        cap = cap_now()
        joined = within_distance_join(
            tree_r, tree_s, cap, config, tracer=worker_tracer
        )
        results = sorted(joined.results, key=pair_key)
        if len(results) > k:
            # Keep the local top-k plus its full tie block: withholding
            # deeper pairs is safe (a global top-k never needs more than
            # k pairs from one partition) and keeping the ties makes the
            # merged prefix independent of partition boundaries.
            kth = results[k - 1].distance
            cut = k
            while cut < len(results) and results[cut].distance == kth:
                cut += 1
            del results[cut:]
        cap_used = cap
        exhausted = False
        stats = joined.stats
        stats.algorithm = "parallel-sweep"
    else:
        joined = runner.kdj(k, algorithm, dmax=task["dmax"])
        cap = cap_now()
        results = [pair for pair in joined.results if pair.distance <= cap]
        dropped = len(joined.results) - len(results)
        exhausted = len(joined.results) < k and dropped == 0
        cap_used = cap if (dropped or algorithm == "sjsort") else math.inf
        stats = joined.stats

    results.sort(key=pair_key)
    stats.results = len(results)
    if slot is not None:
        slot.task_done()
        slot.beat(busy=False, depth=0)
    trace: dict[str, Any] | None = None
    if worker_tracer is not None and collector is not None:
        worker_tracer.close()
        trace = {
            "track": task["index"] + 1,
            "origin": worker_tracer.epoch_origin,
            "events": collector.records,
        }
    return results, cap_used, exhausted, stats, trace


def _make_task(
    partition: Partition,
    s_items: list[RawItem],
    k: int,
    cap: float,
    algorithm: str,
    config: "JoinConfig",
    dmax: float | None,
    page_size: int,
    max_entries: int,
    trace: bool = False,
) -> dict[str, Any]:
    return {
        "index": partition.index,
        "r_items": partition.r_items,
        "s_items": s_items,
        "k": k,
        "cap": cap,
        "algorithm": algorithm,
        "config": config,
        "dmax": dmax,
        "page_size": page_size,
        "max_entries": max_entries,
        "trace": trace,
    }


# ----------------------------------------------------------------------
# Dispatch strategies
# ----------------------------------------------------------------------


def _mp_context() -> multiprocessing.context.BaseContext:
    """Start method for process workers: fork on Linux, spawn elsewhere.

    Fork is the cheap path (workers inherit the read-only task data with
    no re-import), but it is unsafe next to threads on macOS and is no
    longer the default anywhere but Linux; everywhere else — and on any
    platform where fork is unavailable — fall back to spawn, which the
    module-level ``_run_partition`` worker and the picklable task dicts
    support unchanged.
    """
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _kill_pool(executor: concurrent.futures.Executor) -> None:
    """Tear an executor down without waiting on its (possibly wedged) workers."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    executor.shutdown(wait=False, cancel_futures=True)


@dataclass
class _Attempt:
    """One partition task's life on the pool: the task plus its failure count."""

    task: dict[str, Any]
    failures: int = 0
    started: float = 0.0


def _fallback_inline(
    task: dict[str, Any],
    bound: GlobalBound,
    tracer: Tracer,
    counters: Counter,
    attempts: int,
    cause: BaseException | None = None,
) -> tuple[list[ResultPair], float, bool, JoinStats, dict[str, Any] | None]:
    """Last resort: run the partition in-process, worker faults disarmed.

    The injected worker faults model *worker* failures (crash, kill,
    stall); the in-process rerun is the recovery path, so it strips them
    from the plan.  Spill faults stay armed — they model the parent's
    own environment.  A failure here is real: surface it as the typed
    :class:`PartitionFailedError` (chained to the cause) instead of
    whatever the partition engine threw.
    """
    fresh = dict(task)
    config = fresh["config"]
    if config.fault_plan is not None:
        fresh["config"] = replace(
            config, fault_plan=config.fault_plan.without_worker_faults()
        )
    counters["worker_fallbacks"] += 1
    if tracer.enabled:
        tracer.event(
            "worker_fallback",
            partition=fresh["index"],
            attempts=attempts,
            cause=type(cause).__name__ if cause is not None else None,
        )
    try:
        return _run_partition(fresh, live_bound=bound)
    except ReproError:
        raise
    except Exception as exc:
        raise PartitionFailedError(fresh["index"], attempts, str(exc)) from (
            cause or exc
        )


def _dispatch_serial(
    tasks: list[dict[str, Any]],
    bound: GlobalBound,
    delta: float,
    workers: int,
    tracer: Tracer = NULL_TRACER,
    counters: Counter | None = None,
    deadline: Deadline | None = None,
) -> Iterator[tuple[list[ResultPair], float, bool, JoinStats, dict[str, Any] | None]]:
    counters = counters if counters is not None else Counter()
    for task in tasks:
        task["cap"] = min(task["cap"], delta)
        if deadline is not None:
            deadline.check()
        try:
            yield _run_partition(task, live_bound=bound)
        except ReproError:
            raise
        except Exception as exc:
            counters["worker_failures"] += 1
            yield _fallback_inline(task, bound, tracer, counters, attempts=1, cause=exc)


def _dispatch_pool(
    tasks: list[dict[str, Any]],
    bound: GlobalBound,
    delta: float,
    workers: int,
    mode: str,
    config: "JoinConfig",
    tracer: Tracer = NULL_TRACER,
    counters: Counter | None = None,
    deadline: Deadline | None = None,
    telemetry=None,
) -> Iterator[tuple[list[ResultPair], float, bool, JoinStats, dict[str, Any] | None]]:
    """Wave submission with fault tolerance.

    At most ``workers`` attempts in flight; each new submission carries
    the freshest bound snapshot as its cap.  A failed attempt is retried
    up to ``config.worker_retries`` times with exponential backoff
    (``config.retry_backoff_s * 2**(failures-1)``); an attempt that
    exhausts its retries degrades to an in-process serial run with
    worker faults disarmed (:func:`_fallback_inline`).  A broken process
    pool is rebuilt and every in-flight attempt charged one failure; an
    attempt exceeding ``config.worker_timeout_s`` is killed (process
    mode tears the pool down — a single pool worker cannot be cancelled —
    and requeues the innocent bystanders at no failure charge; thread
    mode abandons the future, whose eventual result is ignored).  Typed
    :class:`~repro.resilience.errors.ReproError` failures — deadline,
    spill corruption — are *not* retried: they describe the environment,
    not the worker, and propagate to the caller.
    """
    counters = counters if counters is not None else Counter()
    timeout_s = config.worker_timeout_s
    retries = max(config.worker_retries, 0)
    backoff = max(config.retry_backoff_s, 0.0)

    def make_executor() -> concurrent.futures.Executor:
        init: dict[str, Any] = {}
        if telemetry is not None:
            init = {
                "initializer": _telemetry_init,
                "initargs": (telemetry.arr, telemetry.claim, telemetry.workers),
            }
        if mode == "thread":
            return concurrent.futures.ThreadPoolExecutor(max_workers=workers, **init)
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=_mp_context(), **init
        )

    executor = make_executor()
    seq = itertools.count()
    ready: list[tuple[float, int, _Attempt]] = [
        (0.0, next(seq), _Attempt(task)) for task in tasks
    ]
    heapq.heapify(ready)
    pending: dict[concurrent.futures.Future, _Attempt] = {}

    def rebuild_pool(reason: str) -> None:
        nonlocal executor
        counters["pool_rebuilds"] += 1
        if tracer.enabled:
            tracer.event("pool_rebuild", reason=reason)
        _kill_pool(executor)
        executor = make_executor()

    def submit(attempt: _Attempt) -> None:
        attempt.task["cap"] = min(delta, bound.cutoff)
        attempt.started = time.monotonic()
        try:
            if mode == "thread":
                future = executor.submit(_run_partition, attempt.task, bound)
            else:
                future = executor.submit(_run_partition, attempt.task)
        except (BrokenExecutor, RuntimeError):
            # The pool died between completions; one rebuild, then let a
            # second failure propagate — something is wrong beyond a
            # crashed worker.
            rebuild_pool("submit-failed")
            if mode == "thread":
                future = executor.submit(_run_partition, attempt.task, bound)
            else:
                future = executor.submit(_run_partition, attempt.task)
        pending[future] = attempt

    def retry_or_fallback(attempt: _Attempt, reason: str, cause: BaseException | None):
        """Charge one failure; requeue with backoff, or run inline.

        Returns the fallback's outcome when retries are exhausted, else
        ``None`` (the attempt went back on the ready heap).
        """
        attempt.failures += 1
        counters["worker_failures"] += 1
        if attempt.failures > retries:
            return _fallback_inline(
                attempt.task, bound, tracer, counters, attempt.failures, cause
            )
        delay = backoff * (2 ** (attempt.failures - 1))
        counters["worker_retries"] += 1
        if tracer.enabled:
            tracer.event(
                "worker_retry",
                partition=attempt.task["index"],
                failures=attempt.failures,
                reason=reason,
                delay_s=delay,
            )
        heapq.heappush(ready, (time.monotonic() + delay, next(seq), attempt))
        return None

    try:
        while ready or pending:
            if deadline is not None:
                deadline.check()
            now = time.monotonic()
            while ready and ready[0][0] <= now and len(pending) < workers:
                _, _, attempt = heapq.heappop(ready)
                submit(attempt)
            waits: list[float] = []
            if ready:
                waits.append(ready[0][0] - now)
            if pending and timeout_s is not None:
                waits.append(
                    min(a.started for a in pending.values()) + timeout_s - now
                )
            if deadline is not None and deadline.armed:
                waits.append(deadline.remaining())
            if not pending:
                # Nothing in flight: the only thing to wait for is the
                # next backoff expiry.
                time.sleep(min(max(waits[0], 0.0), 0.1) if waits else 0.0)
                continue
            wait_s = max(min(waits), 0.0) + 1e-3 if waits else None
            done, _ = concurrent.futures.wait(
                pending, timeout=wait_s, return_when=concurrent.futures.FIRST_COMPLETED
            )
            lost: list[_Attempt] = []
            broken: str | None = None
            for future in done:
                attempt = pending.pop(future)
                if broken is not None:
                    # The pool is gone; everything that "completed" with
                    # it is a casualty, not a result.
                    lost.append(attempt)
                    continue
                try:
                    outcome = future.result()
                except ReproError:
                    raise
                except BrokenExecutor as exc:
                    broken = f"{type(exc).__name__}: {exc}"
                    lost.append(attempt)
                except Exception as exc:
                    fallback = retry_or_fallback(
                        attempt, f"{type(exc).__name__}: {exc}", exc
                    )
                    if fallback is not None:
                        bound.offer(pair.distance for pair in fallback[0])
                        yield fallback
                else:
                    bound.offer(pair.distance for pair in outcome[0])
                    yield outcome
            if broken is not None:
                # Every in-flight attempt died with the pool.
                lost.extend(pending.values())
                pending.clear()
                rebuild_pool(broken)
                for attempt in lost:
                    fallback = retry_or_fallback(attempt, "broken-pool", None)
                    if fallback is not None:
                        bound.offer(pair.distance for pair in fallback[0])
                        yield fallback
                continue
            if timeout_s is not None and pending:
                now = time.monotonic()
                stalled = {
                    future: attempt
                    for future, attempt in pending.items()
                    if now - attempt.started >= timeout_s
                }
                if not stalled:
                    continue
                counters["worker_timeouts"] += len(stalled)
                if tracer.enabled:
                    for attempt in stalled.values():
                        tracer.event(
                            "worker_timeout",
                            partition=attempt.task["index"],
                            waited_s=now - attempt.started,
                        )
                if mode == "process":
                    # A single pool worker cannot be cancelled once
                    # running: kill the whole pool, requeue the innocent
                    # in-flight attempts at no failure charge.
                    innocent = [
                        attempt
                        for future, attempt in pending.items()
                        if future not in stalled
                    ]
                    pending.clear()
                    rebuild_pool("worker-timeout")
                    for attempt in innocent:
                        heapq.heappush(ready, (time.monotonic(), next(seq), attempt))
                else:
                    # Threads cannot be killed: abandon the future (its
                    # eventual result, if any, is ignored) and move on.
                    for future in stalled:
                        pending.pop(future)
                        future.cancel()
                for attempt in stalled.values():
                    fallback = retry_or_fallback(attempt, "timeout", None)
                    if fallback is not None:
                        bound.offer(pair.distance for pair in fallback[0])
                        yield fallback
    finally:
        # Reached on completion, on typed errors, and when the consumer
        # abandons the generator: never strand a future, never block on
        # a wedged worker.
        for future in list(pending):
            future.cancel()
        pending.clear()
        if mode == "process":
            _kill_pool(executor)
        else:
            executor.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def parallel_kdj(
    tree_r: RTree,
    tree_s: RTree,
    k: int,
    config: "JoinConfig | None" = None,
    algorithm: str = "amkdj",
    dmax: float | None = None,
) -> "JoinResult":
    """Partitioned parallel k-distance join.

    Drop-in replacement for the sequential ``JoinRunner.kdj`` run — the
    result set is identical; stats are the element-wise aggregate of the
    per-worker runs (counters summed, peaks maxed) plus scheduling
    details under ``stats.extra``.
    """
    from repro.core.api import JoinConfig, JoinResult, JoinRunner

    config = config or JoinConfig()
    if k <= 0:
        raise ValueError("k must be positive")
    workers = max(1, config.parallel)
    started = time.perf_counter()

    mode = config.parallel_mode
    if mode not in ("process", "thread", "serial", "shm-process", "shm-thread", "shm-serial"):
        raise ValueError(
            f"unknown parallel_mode {mode!r}; pick 'process', 'thread', 'serial' "
            "or a zero-copy 'shm-process'/'shm-thread'/'shm-serial'"
        )

    if tree_r.size == 0 or tree_s.size == 0:
        stats = JoinStats(algorithm=f"parallel-{algorithm}", k=k, results=0)
        stats.wall_time = time.perf_counter() - started
        return JoinResult([], stats)

    sequential_config = replace(config, parallel=1)
    boundaries = tile_boundaries(
        tree_r, tree_s, config.parallel_partitions or 2 * workers
    )
    partitions = build_partitions(tree_r, boundaries)
    if (
        workers == 1
        or len(partitions) < 2
        or min(tree_r.size, tree_s.size) < MIN_PARALLEL_OBJECTS
    ):
        result = JoinRunner(tree_r, tree_s, sequential_config).kdj(
            k, algorithm, dmax=dmax
        )
        result.stats.extra["parallel_fallback"] = True
        return result

    if mode.startswith("shm-"):
        if algorithm in _SWEEP_ALGORITHMS and dmax is None:
            from repro.parallel.steal import shm_parallel_kdj

            return shm_parallel_kdj(
                tree_r, tree_s, k,
                config=config, algorithm=algorithm,
                workers=workers, started=started,
            )
        # The zero-copy engine only runs the bounded-sweep algorithms;
        # exact baselines (and a-priori dmax runs) use the tiled
        # executor of the matching flavor.
        mode = mode[4:]

    s_items = gather_items(tree_s)
    space = tree_r.bounds().union(tree_s.bounds())
    delta_max = math.hypot(space.width, space.height)
    rho = estimation.rho_for_datasets(
        tree_r.bounds(), tree_s.bounds(), tree_r.size, tree_s.size
    )
    delta = min(delta_max, estimation.initial_edmax(k, rho) * STRIP_SAFETY)
    if delta <= 0.0:
        delta = delta_max

    total = JoinStats(algorithm=f"parallel-{algorithm}", k=k)
    counters: Counter = Counter()
    # The parent's deadline covers the whole staged run; workers get the
    # same budget via config (each stage's workers start their own clock,
    # so the parent clock is the binding one).
    deadline = Deadline(config.deadline_s) if config.deadline_s is not None else None
    tracer = NULL_TRACER
    owned_tracer: Tracer | None = None
    if config.trace_path is not None:
        from repro.obs import tracer_for

        tracer = owned_tracer = tracer_for(config.trace_path, config.trace_format)
    from repro.obs.live import LivePlane

    plane = LivePlane.from_config(config)
    live = plane.progress if plane is not None else None
    work = {"done": 0.0, "total": 0.0}
    telemetry = None
    if plane is not None:
        profiled = plane.ensure_tracer(tracer)
        if profiled is not tracer:
            # Sink-less tracer: span names for the profiler, no events.
            tracer = owned_tracer = profiled
        plane.set_work_source(lambda: (work["done"], work["total"]))
        if mode != "serial":
            from repro.parallel.shm import WorkerTelemetry

            telemetry = WorkerTelemetry(
                workers, ctx=_mp_context() if mode == "process" else None
            )
            plane.attach_workers(telemetry)
        live.start(f"parallel-{algorithm}", k)
        plane.start(tracer)
    if deadline is not None:
        deadline.bind_tracer(tracer)
    # Workers must not open the parent's trace file, status file,
    # metrics port or profile: they trace into collecting sinks shipped
    # back with their results, and the live plane is the parent's.
    # Checkpointing is likewise the parent's: the durable unit is the
    # whole staged join, captured at drain barriers between stages.
    worker_config = replace(
        sequential_config,
        status_path=None,
        metrics_port=None,
        profile_path=None,
        checkpoint_path=None,
        checkpoint_every_pairs=None,
        checkpoint_every_s=None,
        resume_from=None,
    )
    if tracer.enabled:
        worker_config = replace(worker_config, trace_path=None, trace_format=None)
    final: list[ResultPair] = []
    stages = 0
    checkpoint = None
    if config.checkpoint_path is not None or config.resume_from is not None:
        from repro.resilience.checkpoint import CheckpointManager, join_fingerprint

        fingerprint = join_fingerprint(tree_r, tree_s, algorithm, k)
        if config.resume_from is not None:
            from repro.resilience.recovery import load_checkpoint, validate_checkpoint

            payload = load_checkpoint(config.resume_from, faults=config.fault_plan)
            validate_checkpoint(
                payload, algorithm=algorithm, k=k,
                fingerprint=fingerprint, modes=("tiled",),
            )
            engine_state = payload["engine"]
            delta = engine_state["delta"]
            stages = engine_state["stages"]
            final = list(engine_state["final"])
            # Continue accumulating into the checkpointed aggregate: the
            # next stage's merges land on top of the pre-crash counters.
            total = payload["stats"]
        checkpoint = CheckpointManager.from_config(
            config, algorithm=algorithm, k=k, fingerprint=fingerprint,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        if checkpoint is not None:
            checkpoint.note_emit(len(final))
            checkpoint._last_emit_mark = checkpoint.emitted
            if plane is not None:
                plane.attach_checkpoint(checkpoint)

    def build_checkpoint() -> dict:
        # Drain-barrier snapshot: workers are quiesced (the stage pool
        # has joined), partial top-k merged, aggregate stats folded.
        snapshot = JoinStats(algorithm=total.algorithm, k=k)
        snapshot.merge(total)
        snapshot.results = len(final)
        return {
            "mode": "tiled",
            "engine": {"delta": delta, "stages": stages, "final": list(final)},
            "stats": snapshot,
        }

    try:
        tracer.begin(
            f"join:parallel-{algorithm}",
            k=k,
            workers=workers,
            partitions=len(partitions),
            mode=mode,
        )
        while True:
            stages += 1
            stage_name = f"stage:parallel-{stages}"
            if live is not None:
                live.set_stage(f"parallel-{stages}")
            tracer.begin(stage_name, delta=delta)
            # Fresh bound per stage: within one stage every pair is offered
            # exactly once (R objects are never replicated), which keeps the
            # cutoff a true upper bound on the k-th distance.  Re-running
            # partitions in a retry stage would offer the same distances
            # again and deflate a carried-over cutoff below the k-th.
            bound = GlobalBound(k)
            assigned = assign_s_items(partitions, s_items, delta)
            tasks = [
                _make_task(
                    partition,
                    assigned[partition.index],
                    k,
                    delta,
                    algorithm,
                    worker_config,
                    dmax,
                    tree_r.page_size,
                    tree_r.max_entries,
                    trace=tracer.enabled,
                )
                for partition in partitions
            ]
            runs: list[list[ResultPair]] = []
            caps: list[float] = []
            all_exhausted = True
            work["total"] += float(len(tasks))
            if deadline is not None:
                deadline.check()
            if mode == "serial":
                outcomes = _dispatch_serial(
                    tasks, bound, delta, workers,
                    tracer=tracer, counters=counters, deadline=deadline,
                )
            else:
                outcomes = _dispatch_pool(
                    tasks, bound, delta, workers, mode, config,
                    tracer=tracer, counters=counters, deadline=deadline,
                    telemetry=telemetry,
                )
            for results, cap_used, exhausted, stats, trace in outcomes:
                if mode == "serial":
                    bound.offer(pair.distance for pair in results[:k])
                runs.append(results)
                caps.append(cap_used)
                all_exhausted = all_exhausted and exhausted
                total.merge(stats)
                work["done"] += 1.0
                if live is not None:
                    # Per completed partition: estimate (the strip
                    # width) vs the merged safe bound.
                    live.set_cutoffs(delta, bound.cutoff)
                if trace is not None and tracer.enabled:
                    # Re-emit the worker's records on its own track,
                    # shifted from the worker's clock onto the parent's
                    # via the shared epoch clock.
                    shift = trace["origin"] - tracer.epoch_origin
                    for record in trace["events"]:
                        shifted = dict(record)
                        shifted["ts"] = shifted["ts"] + shift
                        shifted["track"] = trace["track"]
                        tracer.emit(shifted)
            # Boundary-strip replication can surface the same pair from
            # two adjacent partitions; dedupe at the merge so the global
            # answer never repeats a pair.
            final = merge_topk(runs, k, dedupe=True)
            tracer.end(stage_name, results=len(final))
            if live is not None:
                live.set_results(len(final))
                live.stage_done()
                work["done"] = work["total"]
            # A worker's cap bounds what it computed; the strip width bounds
            # what it even *saw* (S replication stops at delta).  Both limit
            # how far the merged answer is known to be complete — except
            # when delta already covers the whole space, at which point
            # replication is total and exhausted workers prove completeness.
            replication_complete = delta >= delta_max
            min_cap = min(
                [math.inf if replication_complete else delta, *caps]
            )
            if (all_exhausted and replication_complete) or (
                len(final) == k and final[-1].distance <= min_cap
            ):
                break
            if replication_complete:
                # Full replication and still fewer than k pairs under the
                # cap: the cap can only be finite once k real distances were
                # seen, so fewer than k pairs exist globally — the sweep at
                # the space diameter already enumerated all of them.
                break
            # The merged k-th distance (when known) is a lower bound on the
            # strip width that can succeed; never grow by less than 2x.
            needed = final[-1].distance if len(final) == k else 0.0
            new_delta = min(delta_max, max(delta * 2.0, needed))
            if tracer.enabled:
                tracer.event("delta_widen", old=delta, new=new_delta, needed=needed)
            delta = new_delta
            if checkpoint is not None:
                # Stage boundary = drain barrier: the captured delta is
                # the widened one, so a resume re-enters at exactly the
                # stage this run was about to start.
                checkpoint.note_emit(len(final) - checkpoint.emitted)
                checkpoint.barrier(build_checkpoint)
        tracer.end(f"join:parallel-{algorithm}", results=len(final), stages=stages)
    finally:
        # Plane first: its final snapshot still reads the work dict and
        # the telemetry array.
        if plane is not None:
            plane.close()
        if checkpoint is not None:
            checkpoint.close()
        if owned_tracer is not None:
            owned_tracer.close()

    total.results = len(final)
    total.wall_time = time.perf_counter() - started
    total.extra.update(
        {
            "parallel_workers": workers,
            "parallel_mode": mode,
            "parallel_partitions": len(partitions),
            "parallel_stages": stages,
            "parallel_delta": delta,
            "parallel_qdmax": bound.cutoff if bound.is_finite else None,
        }
    )
    if counters:
        total.extra.update(
            {f"resilience_{name}": float(value) for name, value in counters.items()}
        )
    return JoinResult(final, total)


# ----------------------------------------------------------------------
# Incremental stream on the partitioned engine
# ----------------------------------------------------------------------


class ParallelIncrementalJoin:
    """Staged incremental stream over :func:`parallel_kdj`.

    Pulls results in merged ascending order without a preset k by
    running partitioned top-``k_j`` sweeps with geometrically growing
    ``k_j`` and yielding only the unseen tail of each stage.  Earlier
    stages' work is repeated (the partitioned engines have no cross-call
    compensation state), which trades total work for the partition-local
    pruning — appropriate for the interactive paging pattern where only
    a few batches are ever pulled.

    With ``config.trace_path`` set, every stage rewrites the trace file,
    so after the stream ends it holds the last (largest-k) stage's run.

    Like :class:`repro.core.api.IncrementalJoin`, the stream closes and
    raises :class:`StaleStreamError` once either tree was written after
    it opened: a later stage would run on the written trees, so the
    skipped prefix would no longer be the pairs already yielded.
    """

    def __init__(
        self,
        tree_r: RTree,
        tree_s: RTree,
        config: "JoinConfig | None" = None,
        algorithm: str = "amkdj",
    ) -> None:
        from repro.core.api import JoinConfig

        self._tree_r = tree_r
        self._tree_s = tree_s
        self._config = config or JoinConfig()
        self._algorithm = algorithm
        self._stats = JoinStats(algorithm="parallel-idj", k=0)
        self._started = time.perf_counter()
        self._generator = self._generate()
        self._produced = 0
        self._closed = False
        self._versions = (tree_r.version, tree_s.version)

    def _check_current(self) -> None:
        """Close and raise :class:`StaleStreamError` once a tree was written."""
        versions = (self._tree_r.version, self._tree_s.version)
        if versions != self._versions and not self._closed:
            self.close()
            raise StaleStreamError("parallel-idj: a tree was written after it opened")

    def _generate(self) -> Iterator[ResultPair]:
        k = max(1, self._config.initial_k)
        yielded = 0
        while True:
            result = parallel_kdj(
                self._tree_r,
                self._tree_s,
                k,
                config=self._config,
                algorithm=self._algorithm,
            )
            self._stats.merge(result.stats)
            for pair in result.results[yielded:]:
                yielded += 1
                yield pair
            if len(result.results) < k:
                return  # dataset exhausted
            k *= 4

    def __iter__(self) -> Iterator[ResultPair]:
        self._check_current()
        for pair in self._generator:
            self._produced += 1
            yield pair
            self._check_current()

    def next_batch(self, n: int) -> list[ResultPair]:
        """Pull up to ``n`` further results (fewer only at exhaustion)."""
        self._check_current()
        batch: list[ResultPair] = []
        for pair in self._generator:
            batch.append(pair)
            if len(batch) == n:
                break
        self._produced += len(batch)
        return batch

    def close(self) -> None:
        """End the stream; partition workers hold no persistent state."""
        self._closed = True
        self._generator.close()

    def __enter__(self) -> "ParallelIncrementalJoin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> JoinStats:
        """Aggregate metric snapshot across all stages pulled so far."""
        self._stats.results = self._produced
        self._stats.wall_time = time.perf_counter() - self._started
        return self._stats


def parallel_incremental_join(
    tree_r: RTree,
    tree_s: RTree,
    config: "JoinConfig | None" = None,
    algorithm: str = "amkdj",
) -> ParallelIncrementalJoin:
    """Incremental (no preset k) stream on the partitioned engine."""
    return ParallelIncrementalJoin(tree_r, tree_s, config, algorithm)
