"""Shared machinery for the join engines.

``JoinContext`` bundles everything one join run needs: the two indexed
datasets, a fresh simulated disk, metered buffer pools for both trees,
the hybrid main queue (built when an engine first reads it), and the
instrumented distance operations.  Every engine (HS, B-KDJ, AM-KDJ,
AM-IDJ, SJ-SORT, NLJ) is a function of a context, so runs are isolated
and their metrics comparable.  A node's children are its own entries
(``Node.entries``, :class:`Item` records), read through the metered
accessor.

``JoinRun`` (opened with :meth:`JoinContext.run`) is everything an
engine does beside its algorithm: the join and stage spans, per-stage
work deltas, the result histogram, the live plane, the checkpoint
barrier and the deadline.  The engines keep their own expansion,
cutoffs and stage logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import estimation
from repro.core.pairs import Item, PairPayload
from repro.core.stats import Instruments, JoinStats
from repro.obs.metrics import StageMeter
from repro.queues.main_queue import MainQueue
from repro.resilience.deadline import NULL_DEADLINE
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage.cost import (
    CostModel,
    DEFAULT_BUFFER_MEMORY,
    DEFAULT_COST_MODEL,
    DEFAULT_QUEUE_MEMORY,
)
from repro.storage.disk import SimulatedDisk

@dataclass(slots=True)
class EngineOptions:
    """Tuning knobs shared by the engines.

    Attributes
    ----------
    optimize_axis / optimize_direction:
        The Section 3.2/3.3 plane-sweep optimizations (Figure 11 turns
        them off).
    distance_queue_all_pairs:
        Footnote 1's option (1): also feed *node* pairs (keyed by their
        maximum distance) to the distance queue.  Default off — the paper
        chose option (2), object pairs only.
    hs_insert_pruning:
        Whether HS-KDJ filters queue insertions with ``qDmax`` (on, the
        charitable reading of the baseline) or prunes only at dequeue
        (off — inflates the queue, closer to the blow-ups the paper
        reports for previous work).
    """

    optimize_axis: bool = True
    optimize_direction: bool = True
    distance_queue_all_pairs: bool = False
    hs_insert_pruning: bool = True


class JoinContext:
    """One join run's environment: trees, disk, queues, instrumentation."""

    def __init__(
        self,
        tree_r: RTree,
        tree_s: RTree,
        queue_memory: int = DEFAULT_QUEUE_MEMORY,
        buffer_memory: int = DEFAULT_BUFFER_MEMORY,
        cost_model: CostModel | None = None,
        rho: float | None = None,
        options: EngineOptions | None = None,
        model_queue_boundaries: bool = True,
        spill_dir: str | None = None,
        tracer=None,
        metrics=None,
        deadline=None,
        faults=None,
        plane=None,
        checkpoint=None,
    ) -> None:
        self.tree_r = tree_r
        self.tree_s = tree_s
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.disk = SimulatedDisk(self.cost_model)
        # The paper's single R-tree buffer serves both indexes; split it
        # evenly between the two trees' pools.
        self.accessor_r = TreeAccessor(tree_r, self.disk, buffer_memory // 2)
        self.accessor_s = TreeAccessor(tree_s, self.disk, buffer_memory // 2)
        self.options = options or EngineOptions()
        # The context fans the tracer, registry and live progress cell
        # out to the instrumented components; :meth:`close` releases the
        # live plane and checkpoint manager, and the tracer only when
        # ``JoinRunner.open`` made it for this run (``owned_tracer``).
        self.instr = Instruments(
            self.disk, self.accessor_r, self.accessor_s,
            tracer=tracer, metrics=metrics,
            live=plane.progress if plane is not None else None,
        )
        self.plane = plane
        self.owned_tracer = None
        self._run: JoinRun | None = None
        self._closed = False
        self.rho = rho if rho is not None else self.default_rho()
        self.queue_memory = queue_memory
        # The Equation (3) density model pre-places the hybrid queue's
        # segment boundaries; disabling it (the ablation benchmark) makes
        # the queue fall back to pure split-on-overflow, the scheme the
        # paper criticizes earlier work for.
        self._queue_options = {
            "rho": self.rho if model_queue_boundaries else None,
            "spill_dir": spill_dir,
            "faults": faults,
        }
        self._main_queue: MainQueue | None = None
        # Cooperative deadline: ticked once per expansion-loop iteration
        # through ``JoinRun.step``; the no-op default costs one call.
        self.deadline = deadline if deadline is not None else NULL_DEADLINE
        if deadline is not None:
            deadline.bind_tracer(self.instr.tracer)
        # Optional CheckpointManager; only :class:`JoinRun` reads it.
        self.checkpoint = checkpoint

    def close(self) -> None:
        """Release the run: the spans of a run an error stopped, the
        final metrics snapshot, the live plane, checkpoint manager, spill
        files and tracer, in that order.

        The plane's final snapshot still reads the live queue and
        registry, and the tracer closes after every span end.
        Idempotent (a second call does nothing); every public entry
        point calls it, so abandoned runs never leak ``seg-*.pile``
        files in ``spill_dir``.
        """
        if self._closed:
            return
        self._closed = True
        if self._run is not None:
            self._run.close()
        tracer, metrics = self.instr.tracer, self.instr.metrics
        if metrics is not None and tracer.enabled:
            # One final registry snapshot into the trace, so reports
            # can derive distribution percentiles offline.
            tracer.counter("metrics:final", **metrics.snapshot())
        if self.plane is not None:
            self.plane.close()
        if self.checkpoint is not None:
            self.checkpoint.close()
        if self._main_queue is not None:
            self._main_queue.close()
        if self.owned_tracer is not None:
            self.owned_tracer.close()

    def __enter__(self) -> "JoinContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def main_queue(self) -> MainQueue:
        """The run's hybrid main queue, built on first use.

        Every queue engine reads it once per run; a run that never does
        (the parallel engine, NLJ, SJ-SORT, the variants) builds no
        queue, so it creates no spill directory and reports no
        ``obs.queue_depth`` histogram.
        """
        if self._main_queue is None:
            queue = MainQueue(self.disk, self.queue_memory, **self._queue_options)
            self.instr.attach_queue(queue)
            queue.set_observer(self.instr.tracer, self.instr.metrics)
            self._main_queue = queue
        return self._main_queue

    def queue_work(self) -> tuple[float, float]:
        """Main-queue progress for the live plane: pops against pops plus
        the entries left; ``(0, 0)`` before an engine builds the queue."""
        queue = self._main_queue
        if queue is None:
            return 0.0, 0.0
        return queue.stats.pops, queue.stats.pops + len(queue)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def run(self, name: str, capture=None, **span_args) -> "JoinRun":
        """Open ``join:<name>``; ``capture()`` builds the checkpoint body.

        Open it before the engine's first charged operation, so the
        run's stage deltas sum to its counters.
        """
        self._run = JoinRun(self, name, capture, span_args)
        return self._run

    def seed(self, resume: dict | None) -> bool:
        """Queue the root pair, or restore a checkpoint's queue and buffers.

        ``False`` when a tree is empty.  A resumed run's roots were
        fetched and charged before the checkpoint, so they are not
        fetched again.
        """
        if resume is not None:
            self.main_queue.restore(resume["queue"])
            self.restore_buffers(resume.get("buffers"))
            return True
        roots = self.root_items()
        if roots is None:
            return False
        root_r, root_s = roots
        self.main_queue.insert(
            self.instr.real_distance(root_r.rect, root_s.rect),
            PairPayload(root_r, root_s),
        )
        return True

    def exact_checkpoint(self, engine: dict, stats: JoinStats) -> dict:
        """An exact engine's checkpoint body: its state plus queue and buffers."""
        engine["queue"] = self.main_queue.snapshot()
        engine["buffers"] = self.buffer_state()
        return {"mode": "exact", "engine": engine, "stats": stats}

    # ------------------------------------------------------------------
    # Dataset model parameters
    # ------------------------------------------------------------------

    def default_rho(self) -> float | None:
        """Equation (3)'s density parameter from the dataset bounds."""
        if self.tree_r.size == 0 or self.tree_s.size == 0:
            return None
        return estimation.rho_for_datasets(
            self.tree_r.bounds(),
            self.tree_s.bounds(),
            self.tree_r.size,
            self.tree_s.size,
        )

    def initial_edmax(self, k: int) -> float:
        """Equation (3) estimate for this dataset pair."""
        if self.rho is None:
            return math.inf
        return estimation.initial_edmax(k, self.rho)

    # ------------------------------------------------------------------
    # Tree access (all metered)
    # ------------------------------------------------------------------

    def root_items(self) -> tuple[Item, Item] | None:
        """The two root items, or ``None`` when either dataset is empty."""
        if self.tree_r.size == 0 or self.tree_s.size == 0:
            return None
        return self.accessor_r.root.item(), self.accessor_s.root.item()

    def children_r(self, item: Item) -> list[Item]:
        """Children of an R-side item (the item itself if an object).

        A node's children are its entries list itself, fetched through
        the metered accessor, so every call counts and charges the node
        access.  Callers must treat the list as read-only: it is the
        tree's.  No join reads a tree across a write (a KDJ runs to
        completion, and an open stream raises ``StaleStreamError``
        before it expands again), so writes edit it in place, and the
        per-join caches keyed by page id (the sweeper's sorted sides,
        HS's sorted child lists) stay exact for the whole join.
        """
        if item.is_object:
            return [item]
        return self.accessor_r.get(item.ref).entries

    def children_s(self, item: Item) -> list[Item]:
        """Children of an S-side item; see :meth:`children_r`."""
        if item.is_object:
            return [item]
        return self.accessor_s.get(item.ref).entries

    def touch_r(self, item: Item) -> None:
        """Count a (re-)access of an R-side node, e.g. in compensation."""
        if not item.is_object:
            self.accessor_r.get(item.ref)

    def touch_s(self, item: Item) -> None:
        """Count a (re-)access of an S-side node."""
        if not item.is_object:
            self.accessor_s.get(item.ref)

    def buffer_state(self) -> dict[str, list[int]]:
        """Resident page ids of both buffer pools (checkpoint capture).

        Only the ids go into a checkpoint — restore re-reads the pages
        from the stores — so checkpoint size stays independent of the
        buffer capacity.
        """
        return {
            "r": self.accessor_r.buffer.snapshot_lru(),
            "s": self.accessor_s.buffer.snapshot_lru(),
        }

    def restore_buffers(self, state: dict[str, list[int]] | None) -> None:
        """Warm both pools from a checkpoint's :meth:`buffer_state`.

        Without this a resumed run starts with cold buffers and its
        buffered node-access count (Table 2) drifts from the
        uninterrupted run's; warming is uncounted, so the combined
        prefix + remainder counters match exactly.
        """
        if not state:
            return
        self.accessor_r.buffer.warm(state["r"])
        self.accessor_s.buffer.warm(state["s"])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def make_stats(self, algorithm: str, k: int, results: int) -> JoinStats:
        """Snapshot the run's counters into a stats record.

        All counter propagation — including the main queue's — lives in
        :meth:`Instruments.fill`, so every engine gets the same fields.
        """
        stats = JoinStats(algorithm=algorithm, k=k, results=results)
        self.instr.fill(stats)
        return stats


def _ignore(*args: object) -> None:
    return None


class JoinRun:
    """One engine run's calls beside its algorithm (see :meth:`JoinContext.run`).

    A stage's one label names its ``stage:<label>`` span, the
    :class:`StageMeter` counter event ``stage:<label>``, its
    ``obs.stage.<label>.*`` deltas and the live stage.  ``step`` is the
    deadline's own ``tick`` without a checkpoint manager, else ``tick()``
    then the barrier, whose checkpointed stats also carry the open
    stage's deltas so far (a resumed run merges them with its own);
    ``cutoffs`` is the live plane's store, or a no-op.
    """

    __slots__ = ("step", "cutoffs", "_tracer", "_name", "_live", "_ckpt",
                 "_hist", "_meter", "_stage", "_batch")

    def __init__(self, ctx: JoinContext, name: str, capture, span_args: dict) -> None:
        instr = ctx.instr
        tracer = self._tracer = instr.tracer
        metrics = instr.metrics
        live = self._live = instr.live
        ckpt = self._ckpt = ctx.checkpoint
        self._hist = metrics.histogram("result_distance") if metrics is not None else None
        self._name: str | None = f"join:{name}"
        self._stage: str | None = None
        self._batch = None
        tick = self.step = ctx.deadline.tick
        if ckpt is not None:
            barrier = ckpt.barrier

            def body() -> dict:
                payload = capture()
                if self._meter is not None and self._stage is not None:
                    self._meter.carry(self._stage, payload["stats"].extra)
                return payload

            def step() -> None:
                tick()
                barrier(body)

            self.step = step
        self.cutoffs = live.set_cutoffs if live is not None else _ignore
        tracer.begin(self._name, **span_args)
        self._meter = StageMeter(instr) if tracer.enabled or metrics is not None else None

    def begin_stage(self, label: str, cutoffs=None, batch: str = "expand", **span_args):
        """Open ``stage:<label>``; returns the stage's expansion batcher."""
        self._stage = label
        self._tracer.begin(f"stage:{label}", **span_args)
        if self._live is not None:
            self._live.set_stage(label)
        if cutoffs is not None:
            self.cutoffs(*cutoffs)
        self._batch = self._tracer.batcher(batch)
        return self._batch

    def end_stage(self, **args) -> None:
        """Close the open stage: its span, work deltas and live count."""
        label, self._stage = self._stage, None
        if label is None:
            return
        self._batch.flush()
        self._tracer.end(f"stage:{label}", **args)
        if self._meter is not None:
            self._meter.stage_end(label)
        if self._live is not None:
            self._live.stage_done()

    def result(self, distance: float) -> None:
        """One produced result: watermark, distance histogram, live count."""
        if self._ckpt is not None:
            self._ckpt.note_emit()
        if self._hist is not None:
            self._hist.observe(distance)
        if self._live is not None:
            self._live.note_result()

    def produced(self, n: int) -> None:
        """Set the checkpoint watermark and the live count to ``n``.

        :meth:`result` advances both by one per streamed result.  A run
        whose widening stages each find an answer that replaces the last
        one (the parallel engine) sets them instead, and reports its
        final answer once, through :meth:`answer`.
        """
        if self._ckpt is not None:
            self._ckpt.note_emit(n - self._ckpt.emitted)
        if self._live is not None:
            self._live.set_results(n)

    def answer(self, distances: list[float]) -> None:
        """Such a run's final answer: the distance histogram and count."""
        if self._hist is not None:
            for distance in distances:
                self._hist.observe(distance)
        self.produced(len(distances))

    def close(self, **args) -> None:
        """End the open stage and the join span, both with ``args``; idempotent."""
        name, self._name = self._name, None
        if name is not None:
            self.end_stage(**args)
            self._tracer.end(name, **args)


def kdj_emit(ctx: JoinContext, distance_queue):
    """``(emit, push)``: stage an expansion's pairs, then bulk-push them.

    The main queue's pop order is insertion-timing invariant within one
    expansion.  A distance queue (the k-distance joins) is fed at once,
    since qDmax prunes the live sweep: object pairs, with a ``qdmax``
    event when it tightens, and node pairs' maximum distance under
    ``distance_queue_all_pairs``.
    """
    queue = ctx.main_queue
    staged: list[tuple[float, PairPayload]] = []

    def push() -> None:
        if staged:
            queue.push_many(staged)
            staged.clear()

    if distance_queue is None:
        def emit(item_r: Item, item_s: Item, real: float) -> None:
            staged.append((real, PairPayload(item_r, item_s)))

        return emit, push
    tracer = ctx.instr.tracer
    all_pairs = ctx.options.distance_queue_all_pairs
    insert = distance_queue.insert

    def emit(item_r: Item, item_s: Item, real: float) -> None:
        pair = PairPayload(item_r, item_s)
        staged.append((real, pair))
        if pair.is_object_pair:
            if tracer.enabled:
                before = distance_queue.cutoff
                insert(real)
                after = distance_queue.cutoff
                if after < before:
                    tracer.event("qdmax", old=before, new=after)
            else:
                insert(real)
        elif all_pairs:
            insert(item_r.rect.max_dist(item_s.rect))

    return emit, push


def pick_expansion_side(a: Item, b: Item) -> bool:
    """HS's uni-directional expansion choice: True to expand the R side.

    The side at the higher tree level expands, ties expand R.  Objects
    sit at level -1, so a node side always expands before an object
    side.  The choice is a function of the pair's levels alone, so every
    pair has exactly one generating parent and no duplicates ever enter
    the queue.
    """
    return a.level >= b.level
