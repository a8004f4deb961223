"""Shared machinery for the join engines.

``JoinContext`` bundles everything one join run needs: the two indexed
datasets, a fresh simulated disk, metered buffer pools for both trees,
the hybrid main queue, and the instrumented distance operations.  Every
engine (HS, B-KDJ, AM-KDJ, AM-IDJ, SJ-SORT) is a function of a context,
so runs are isolated and their metrics comparable.  A node's children
are its own entries (``Node.entries``, :class:`Item` records), read
through the metered accessor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import estimation
from repro.core.pairs import Item, PairPayload
from repro.core.stats import Instruments, JoinStats
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
    expansion_policy:
        Uni-directional choice for the HS baseline when both sides are
        nodes.  The default ``"level"`` expands the deeper-rooted side
        (ties expand R), which guarantees every pair is generated through
        exactly one descent path — area-based policies can create
        duplicate queue entries.  Alternatives: ``"larger"`` (area),
        ``"r"``, ``"s"``, ``"alternate"``.
    hs_insert_pruning:
        Whether HS-KDJ filters queue insertions with ``qDmax`` (on, the
        charitable reading of the baseline) or prunes only at dequeue
        (off — inflates the queue, closer to the blow-ups the paper
        reports for previous work).
    """

    optimize_axis: bool = True
    optimize_direction: bool = True
    distance_queue_all_pairs: bool = False
    expansion_policy: str = "level"
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
        live=None,
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
        # The tracer/registry stay owned by whoever created them (the
        # runner closes a file-backed tracer after the run); the context
        # only fans them out to the instrumented components.
        self.instr = Instruments(
            self.disk, self.accessor_r, self.accessor_s,
            tracer=tracer, metrics=metrics, live=live,
        )
        self.rho = rho if rho is not None else self.default_rho()
        self.queue_memory = queue_memory
        # The Equation (3) density model pre-places the hybrid queue's
        # segment boundaries; disabling it (the ablation benchmark) makes
        # the queue fall back to pure split-on-overflow, the scheme the
        # paper criticizes earlier work for.
        queue_rho = self.rho if model_queue_boundaries else None
        self.main_queue = MainQueue(
            self.disk, queue_memory, rho=queue_rho, spill_dir=spill_dir,
            faults=faults,
        )
        self.instr.attach_queue(self.main_queue)
        self.main_queue.set_observer(self.instr.tracer, self.instr.metrics)
        # Cooperative deadline: engines call ``ctx.deadline.tick()`` once
        # per expansion-loop iteration; the no-op default costs one
        # attribute access, same pattern as the tracer.
        self.deadline = deadline if deadline is not None else NULL_DEADLINE
        if deadline is not None:
            deadline.bind_tracer(self.instr.tracer)
        # Optional CheckpointManager; engines guard every capture point
        # with ``if ctx.checkpoint is not None`` so the common case costs
        # one attribute read and allocates nothing.
        self.checkpoint = checkpoint

    def close(self) -> None:
        """Engine teardown: release the queue's on-disk spill files.

        Idempotent; stats snapshots taken earlier stay valid.  Every
        public entry point (``JoinRunner``, the join variants, exhausted
        or explicitly closed incremental streams) calls this so abandoned
        runs never leak ``seg-*.pile`` files in ``spill_dir``.
        """
        self.main_queue.close()

    def __enter__(self) -> "JoinContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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
        HS's packed blocks) stay exact for the whole join.
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


def pick_expansion_side(a: Item, b: Item, policy: str, flip: bool) -> bool:
    """Uni-directional expansion choice: True to expand the R side.

    When one side is an object the node side is expanded; otherwise the
    ``policy`` decides.  ``"level"`` — expand the side at the higher tree
    level, ties expand R — makes the choice a function of the pair's
    levels alone, so every pair has exactly one generating parent and no
    duplicates ever enter the queue.
    """
    if a.is_object:
        return False
    if b.is_object:
        return True
    if policy == "level":
        return a.level >= b.level
    if policy == "r":
        return True
    if policy == "s":
        return False
    if policy == "alternate":
        return flip
    return a.rect.area() >= b.rect.area()


def queue_payload(a: Item, b: Item) -> PairPayload:
    """Convenience constructor keeping R-side first."""
    return PairPayload(a, b)
