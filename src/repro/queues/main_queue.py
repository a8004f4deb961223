"""Hybrid memory/disk main queue (paper Section 4.4).

The main queue holds candidate pairs ordered by minimum distance.  It can
grow to ``O(|R_obj| x |S_obj|)`` entries in the worst case, so it cannot
be assumed to fit in memory.  Following the paper, the queue is
partitioned by distance range:

- the shortest range lives in memory as a binary min-heap;
- longer ranges live on (simulated) disk as *unsorted piles* ("segments");
- when the density parameter ``rho`` of Equation (3) is known, segment
  boundaries are pre-placed at ``sqrt(i * n * rho)`` for heap capacity
  ``n`` — under the uniform model each of the first segments then holds
  about one heap-load of result pairs, so splits are rare and a swap-in
  refills the heap exactly once per ``n`` results;
- if the in-memory heap still overflows it is **split**: the longer-
  distance half is written out as a new segment in front of the existing
  ones;
- when the heap empties while segments remain, the nearest segment is
  **swapped in**; if it is larger than the heap capacity, only the ``n``
  smallest entries stay in memory and the rest is written back.

The boundary table is capped (``MAX_FORMULA_SEGMENTS``); everything past
the last boundary lands in one open-ended tail pile, which models the
fact that only the first few ranges are ever consumed by a top-k query.
Without ``rho`` (pass ``None``) the queue degenerates to the pure
split-on-overflow scheme of earlier work; the difference is measured in
the ablation benchmark.

Boundary semantics are half-open everywhere: the heap owns distances in
``[0, mem_bound)`` and the segments own ``[mem_bound, inf)``.  A split
therefore never lets equal keys straddle the boundary — the whole block
of keys equal to the split point moves to disk together.  Invariant
maintained throughout: ``max(heap) <= mem_bound <= every segment key``,
so the global minimum is always the heap minimum, checkable exactly
(:meth:`MainQueue.check_invariant` does no tolerance-based comparison).

A queue abandoned mid-drain in real-spill mode would leak its segment
files; :meth:`MainQueue.close` (also reachable via the context-manager
protocol) unlinks every live spill file, and the join engines call it
from their teardown.

Spill I/O is hardened against the two failure shapes a real disk
produces:

- **writes** — every batch is framed as ``(crc32, pickled-entries)``;
  a failed append (ENOSPC, permissions, an injected fault) rolls the
  file back to the last good batch, flips the queue into memory-
  retention mode (the batch — and all later spills — stay in the
  staging buffers), and counts a ``spill_write_failures`` stat.  The
  join completes with identical results, just without the memory bound;
- **reads** — a checksum mismatch, unreadable framing, or an
  entry-count shortfall (truncation) raises the typed
  :class:`~repro.resilience.errors.SpillCorruptionError`.  The data is
  gone, so the queue cannot recover — but the raising path leaves every
  live file registered, and the engines' ``finally`` teardown calls
  :meth:`MainQueue.close`, so even an aborted join leaves ``spill_dir``
  empty.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
import uuid
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.tracer import NULL_TRACER
from repro.resilience.errors import SpillCorruptionError
from repro.storage.disk import SimulatedDisk

#: Modeled size of one queue entry on disk: distance (8 bytes), two node
#: references (8 + 8), level/flags and bookkeeping (24).  Matches the
#: magnitude a C implementation of the paper would use.
DEFAULT_ENTRY_BYTES = 48

#: Size of the pre-placed boundary table in rho mode.
MAX_FORMULA_SEGMENTS = 64


@dataclass(slots=True)
class QueueStats:
    """Operation counters for one main queue."""

    insertions: int = 0
    pops: int = 0
    splits: int = 0
    swap_ins: int = 0
    spilled_entries: int = 0
    peak_size: int = 0
    spill_write_failures: int = 0


@dataclass(slots=True)
class _Segment:
    """An unsorted on-disk pile covering distances ``[lo, hi)``.

    In simulated mode all entries stay in ``entries``.  In real-spill
    mode ``entries`` is only a staging buffer: cold batches are pickled
    to ``path`` and ``spilled`` counts what lives in the file.
    """

    lo: float
    hi: float
    entries: list[tuple[float, Any]] = field(default_factory=list)
    path: Path | None = None
    spilled: int = 0
    staged_since_flush: int = 0

    def total(self) -> int:
        return len(self.entries) + self.spilled


class MainQueue:
    """Min-priority queue of ``(distance, payload)`` with bounded memory.

    Parameters
    ----------
    disk:
        Simulated disk charged for spills, swap-ins and CPU heap work.
    memory_bytes:
        Size of the in-memory portion (the paper default is 512 KB).
    rho:
        Density parameter of Equation (3), ``area(R n S) / (pi |R| |S|)``;
        used to pre-place segment boundaries.  ``None`` disables
        model-based boundaries.
    entry_bytes:
        Modeled on-disk size of one entry.
    spill_dir:
        When given, disk segments are *actually* written to pickle files
        under this directory (keeping Python memory bounded by the heap
        capacity plus one staging page per segment) instead of merely
        being charged to the simulated clock.  Files are removed as
        segments are consumed.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` whose
        ``spill_write`` / ``spill_read`` sites inject I/O failures into
        the real-spill paths (test harness and ``--inject-faults``).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        rho: float | None = None,
        entry_bytes: int = DEFAULT_ENTRY_BYTES,
        spill_dir: str | Path | None = None,
        faults=None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if entry_bytes <= 0:
            raise ValueError("entry_bytes must be positive")
        if rho is not None and rho <= 0:
            raise ValueError("rho must be positive when given")
        self._disk = disk
        self._entry_bytes = entry_bytes
        self._capacity = max(memory_bytes // entry_bytes, 4)
        self._rho = rho
        # In-memory heap: (distance, seq, payload) triples under
        # :mod:`heapq`.  The unique ``seq`` breaks distance ties so a
        # comparison never reaches the (unorderable) payload.  It counts
        # *down*: among equal distances the most recent insertion pops
        # first, which keeps a traversal descending through a tie block
        # (e.g. overlapping node pairs at distance 0) instead of
        # expanding its whole frontier breadth-first — small-k joins are
        # orders of magnitude faster under the recency order.  Segments
        # keep the plain ``(distance, payload)`` pairs — the spill format
        # is unchanged; seqs are minted fresh whenever entries re-enter
        # the heap.
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        # Bulk-pop drain state (see pop_heads): triples mechanically
        # removed from the heap but not yet accounted as popped.  While
        # a drain is active ``_pending_min`` tracks the smallest
        # heap-routed insert since the drain began — the batch-abort
        # comparison that keeps bulk pops byte-identical to single pops.
        self._pending: list[tuple[float, int, Any]] | None = None
        self._pending_pos = 0
        self._pending_min = math.inf
        # Last segment an insert routed to: consecutive spilled inserts
        # cluster by distance, so most lookups hit this one-entry memo.
        # Cleared by anything that drops or re-ranges a segment.
        self._last_segment: _Segment | None = None
        # Split segments: carved out of the memory range, always strictly
        # below every live formula segment; kept sorted ascending by lo.
        self._split_segments: list[_Segment] = []
        # Formula segments: index i covers [b_i, b_{i+1}), boundaries
        # b_i = sqrt(i * n * rho); the last index is open-ended.
        self._formula_segments: dict[int, _Segment] = {}
        self._mem_bound = self._boundary(1)
        self.stats = QueueStats()
        self._size = 0
        # Observability hooks (see repro.obs): the no-op tracer makes
        # the per-event guards one attribute check; the depth histogram
        # is sampled on every insert/pop only when a registry is set.
        self.tracer = NULL_TRACER
        self._depth_hist = None
        self._faults = faults
        # Set on the first failed spill write: the queue then retains
        # everything in memory instead of retrying a disk that already
        # failed once (ENOSPC rarely clears mid-run).
        self._spill_broken = False
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._created_spill_dir = False
        if self._spill_dir is not None:
            self._created_spill_dir = not self._spill_dir.exists()
            self._spill_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Entries the in-memory heap can hold."""
        return self._capacity

    def set_observer(self, tracer, metrics) -> None:
        """Attach the run's tracer and metrics registry (both optional).

        Called by ``JoinContext`` right after construction; the queue
        then emits ``queue_split``/``queue_spill``/``queue_swap_in``
        point events and samples its depth into the ``queue_depth``
        histogram on every insert and pop.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._depth_hist = (
            metrics.histogram("queue_depth") if metrics is not None else None
        )

    def close(self) -> None:
        """Release on-disk resources: unlink every live spill file.

        Safe to call at any time (including mid-drain) and idempotent.
        The queue is logically empty afterwards; entries still queued are
        discarded.  Engines call this from their teardown so an abandoned
        queue — e.g. a k-distance join that stopped after k results with
        candidates still spilled — leaves nothing behind in ``spill_dir``.
        """
        for segment in self._all_segments():
            if segment.path is not None:
                segment.path.unlink(missing_ok=True)
                segment.path = None
            segment.spilled = 0
            segment.entries = []
        self._split_segments = []
        self._formula_segments = {}
        self._last_segment = None
        self._heap = []
        self._size = 0
        self._pending = None
        # A spill directory this queue itself created is temporary state:
        # remove it once empty.  A pre-existing (user-supplied) directory
        # is never touched.  ENOTEMPTY and friends are not errors — the
        # directory may be shared with another queue or hold user files.
        if self._created_spill_dir and self._spill_dir is not None:
            try:
                self._spill_dir.rmdir()
            except OSError:
                pass
            else:
                self._created_spill_dir = False

    def __enter__(self) -> "MainQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def insert(self, distance: float, payload: Any) -> None:
        """Insert a candidate pair keyed by its minimum distance."""
        self.stats.insertions += 1
        self._size += 1
        self._disk.charge_cpu(self._disk.cost_model.cpu_queue_op)
        if distance < self._mem_bound:
            self._seq -= 1
            heapq.heappush(self._heap, (distance, self._seq, payload))
            if self._pending is not None:
                if distance < self._pending_min:
                    self._pending_min = distance
                # The overflow check must count drained-but-unconsumed
                # heads: they are logically still in the heap, and a
                # split taken without them would pick a different median
                # than the unbatched run.  Restoring them first makes
                # the heap exactly the unbatched state (the engine sees
                # ``peek_head() is None`` and ends its batch).
                if (
                    len(self._heap) + len(self._pending) - self._pending_pos
                    > self._capacity
                ):
                    self.flush_heads()
                    if len(self._heap) > self._capacity:
                        self._split()
            elif len(self._heap) > self._capacity:
                self._split()
        else:
            segment = self._segment_for(distance)
            segment.entries.append((distance, payload))
            segment.staged_since_flush += 1
            self.stats.spilled_entries += 1
            # Appends stream to disk through a one-page write buffer; the
            # amortized cost is one sequential page per page of entries.
            if segment.staged_since_flush >= self._entries_per_page():
                self._disk.sequential_write(1)
                flushed = segment.staged_since_flush
                segment.staged_since_flush = 0
                if self._spill_dir is not None:
                    if self._write_segment(segment, segment.entries):
                        segment.entries = []
                if self.tracer.enabled:
                    self.tracer.event(
                        "queue_spill", entries=flushed,
                        segment_lo=segment.lo, segment_total=segment.total(),
                    )
        if self._size > self.stats.peak_size:
            self.stats.peak_size = self._size
        if self._depth_hist is not None:
            self._depth_hist.observe(self._size)

    def pop(self) -> tuple[float, Any]:
        """Remove and return the globally smallest ``(distance, payload)``."""
        if self._pending is not None:
            self.flush_heads()
        while not self._heap:
            self._swap_in()
        self.stats.pops += 1
        self._size -= 1
        self._disk.charge_cpu(self._disk.cost_model.cpu_queue_op)
        if self._depth_hist is not None:
            self._depth_hist.observe(self._size)
        distance, _, payload = heapq.heappop(self._heap)
        return distance, payload

    def peek_key(self) -> float:
        """Smallest distance currently queued (swapping in if needed)."""
        if self._pending is not None:
            self.flush_heads()
        while not self._heap:
            self._swap_in()
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # Bulk operations (flat hot path)
    # ------------------------------------------------------------------
    #
    # No engine drains heads; these stay because perfbench/layers.py wraps them.
    #
    # ``pop_heads`` mechanically drains up to ``limit`` in-memory heap
    # heads with *no* accounting: ``__len__`` and the pop counters stay
    # logical, so to every observer the entries are still queued.  The
    # engine then walks the drained run head by head — ``peek_head`` to
    # inspect, ``consume_head`` to take it (this is where the pop is
    # accounted, identically to :meth:`pop`), ``flush_heads`` to put the
    # unconsumed tail back verbatim (original seq triples, so pop order
    # is untouched).  Exactness argument: the drain stops at the
    # in-memory heap boundary (never forces a swap-in), and
    # ``peek_head`` refuses to hand out a head once a smaller-or-equal
    # distance has been inserted into the heap region during the drain —
    # ties included, because newer insertions carry lower seqs and would
    # pop *first* in the unbatched run.

    def pop_heads(self, limit: int) -> int:
        """Drain up to ``limit`` heap heads into the pending run.

        Returns the number drained (0 when batching is not worthwhile:
        an empty or single-entry heap, or a drain already active).
        Never swaps in — entries beyond the in-memory heap are left for
        the normal single-pop path.
        """
        heap = self._heap
        n = min(limit, len(heap))
        if n <= 1 or self._pending is not None:
            return 0
        self._pending = [heapq.heappop(heap) for _ in range(n)]
        self._pending_pos = 0
        self._pending_min = math.inf
        return n

    def peek_head(self) -> tuple[float, Any] | None:
        """Next pending head, or ``None`` when the batch must end.

        ``None`` means either the run is exhausted, or it was implicitly
        flushed (an insert during the drain overflowed the heap), or a
        child inserted during the drain would pop before this head in
        the unbatched order — in every case the caller falls back to the
        outer single-pop loop, which observes the exact unbatched state.
        """
        pending = self._pending
        if pending is None:
            return None
        entry = pending[self._pending_pos]
        if self._pending_min <= entry[0]:
            self.flush_heads()
            return None
        return entry[0], entry[2]

    def consume_head(self) -> tuple[float, Any]:
        """Take the current pending head, accounting it exactly as a pop."""
        pending = self._pending
        entry = pending[self._pending_pos]
        self._pending_pos += 1
        if self._pending_pos == len(pending):
            self._pending = None
        self.stats.pops += 1
        self._size -= 1
        self._disk.charge_cpu(self._disk.cost_model.cpu_queue_op)
        if self._depth_hist is not None:
            self._depth_hist.observe(self._size)
        return entry[0], entry[2]

    def flush_heads(self) -> None:
        """Restore every unconsumed pending head verbatim; idempotent.

        No accounting: the entries were never logically popped, so this
        is invisible to every counter and to pop order (the original
        ``(distance, seq, payload)`` triples re-enter the heap).
        """
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        heap = self._heap
        for i in range(self._pending_pos, len(pending)):
            heapq.heappush(heap, pending[i])

    def push_many(self, pairs: list[tuple[float, Any]]) -> None:
        """Bulk insert, exactly equivalent to :meth:`insert` per pair.

        Counters, CPU charges, depth samples and (crucially) seq
        assignment match the per-entry loop.  As long as the batch
        cannot overflow the heap — so no split can run mid-batch and
        the memory bound stays fixed — the whole batch is processed in
        one hoisted loop: in-bound entries collapse into one extend +
        sift pass (``heapify``) for large batches, out-of-bound entries
        stream into their spill segments with the per-page flush cadence
        of the sequential path.  A batch that could trigger a split
        falls back to the exact per-entry path.
        """
        if not isinstance(pairs, list):
            pairs = list(pairs)
        n = len(pairs)
        if n == 0:
            return
        if n == 1:
            self.insert(pairs[0][0], pairs[0][1])
            return
        heap = self._heap
        pending_n = (
            0 if self._pending is None else len(self._pending) - self._pending_pos
        )
        if len(heap) + pending_n + n > self._capacity:
            for distance, payload in pairs:
                self.insert(distance, payload)
            return
        stats = self.stats
        disk = self._disk
        stats.insertions += n
        disk.charge_cpu(disk.cost_model.cpu_queue_op * n)
        bound = self._mem_bound
        seq = self._seq
        low = math.inf
        in_bound: list[tuple[float, int, Any]] = []
        entries_per_page = 0
        segment = None
        for distance, payload in pairs:
            if distance < bound:
                seq -= 1
                in_bound.append((distance, seq, payload))
                if distance < low:
                    low = distance
                continue
            # Spill path, verbatim from :meth:`insert`: append to the
            # covering segment, flush through the one-page write buffer.
            # The covering-segment memo is kept in a local (synced with
            # ``_last_segment`` by ``_segment_for``): consecutive spills
            # land in the same segment, so the common case is two
            # comparisons with no call.
            if not entries_per_page:
                entries_per_page = self._entries_per_page()
            if segment is None or not (segment.lo <= distance < segment.hi):
                segment = self._segment_for(distance)
            segment.entries.append((distance, payload))
            segment.staged_since_flush += 1
            stats.spilled_entries += 1
            if segment.staged_since_flush >= entries_per_page:
                disk.sequential_write(1)
                flushed = segment.staged_since_flush
                segment.staged_since_flush = 0
                if self._spill_dir is not None:
                    if self._write_segment(segment, segment.entries):
                        segment.entries = []
                if self.tracer.enabled:
                    self.tracer.event(
                        "queue_spill", entries=flushed,
                        segment_lo=segment.lo, segment_total=segment.total(),
                    )
        self._seq = seq
        if in_bound:
            # One sift pass beats m pushes once the batch is a
            # meaningful fraction of the heap; below that, pushes into a
            # large heap are cheaper than re-heapifying it.
            if len(in_bound) * 8 >= len(heap):
                heap.extend(in_bound)
                heapq.heapify(heap)
            else:
                push = heapq.heappush
                for entry in in_bound:
                    push(heap, entry)
            if self._pending is not None and low < self._pending_min:
                self._pending_min = low
        size = self._size
        hist = self._depth_hist
        if hist is not None:
            for i in range(1, n + 1):
                hist.observe(size + i)
        self._size = size + n
        if self._size > stats.peak_size:
            stats.peak_size = self._size

    def _new_spill_path(self) -> Path:
        assert self._spill_dir is not None
        return self._spill_dir / f"seg-{uuid.uuid4().hex}.pile"

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def in_memory_size(self) -> int:
        """Entries currently held in the heap."""
        return len(self._heap)

    @property
    def segment_count(self) -> int:
        """Number of non-empty disk segments."""
        return sum(1 for s in self._all_segments() if s.total())

    @property
    def spill_files(self) -> int:
        """Live spill files on real disk (0 in simulated mode)."""
        return sum(
            1 for s in self._all_segments() if s.path is not None
        )

    def check_invariant(self) -> bool:
        """Exact check of the heap/segment boundary (test hook).

        The heap owns ``[0, mem_bound)`` and the segments own
        ``[mem_bound, inf)``, so the check is strict: no heap key may
        exceed ``mem_bound`` and no staged segment key may fall below it.
        (Spilled file batches share their segment's range, which starts
        at or above the bound by construction.)
        """
        if self._heap:
            heap_max = max(entry[0] for entry in self._heap)
            if heap_max > self._mem_bound:
                return False
        for segment in self._all_segments():
            if any(key < self._mem_bound for key, _ in segment.entries):
                return False
        return True

    # ------------------------------------------------------------------
    # Checkpoint snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Self-contained picklable image of the queue's logical state.

        Spilled file batches are read back (checksums validated, file
        left untouched) and embedded, so the checkpoint does not dangle
        references to spill files that swap-ins unlink mid-run.  The
        heap triples are captured verbatim — the ``seq`` tie-break
        decides pop order among equal distances, so resumed pops stay
        byte-identical.  Nothing is charged to the simulated disk:
        checkpointing must not perturb the paper's cost counters.
        """
        # A drain in flight is invisible state: fold it back so the
        # captured heap is complete (engines only checkpoint at batch
        # boundaries, so this is a no-op there — it guards direct use).
        self.flush_heads()

        def segment_state(segment: _Segment) -> tuple[float, float, list, int]:
            entries: list[tuple[float, Any]] = []
            if segment.path is not None and segment.path.exists():
                entries.extend(
                    self._read_batches(
                        segment.path, segment.spilled, inject_faults=False
                    )
                )
            entries.extend(segment.entries)
            # staged_since_flush rides along so the resumed queue's next
            # page-flush charge fires at the same insert as the original
            # run's — without it the simulated response time drifts.
            return (segment.lo, segment.hi, entries, segment.staged_since_flush)

        return {
            "mem_bound": self._mem_bound,
            "seq": self._seq,
            "heap": list(self._heap),
            "split_segments": [segment_state(s) for s in self._split_segments],
            "formula_segments": {
                index: segment_state(s)
                for index, s in self._formula_segments.items()
            },
            "size": self._size,
            "spill_broken": self._spill_broken,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Rebuild the logical state captured by :meth:`snapshot`.

        Counters start fresh — the checkpointed :class:`JoinStats`
        prefix carries the pre-crash counts, and the resumed run's
        stats are merged on top.  With a real ``spill_dir``, restored
        segment entries are written straight back out so the resumed
        run keeps the memory bound.
        """
        self.close()
        if self._spill_dir is not None and not self._spill_dir.exists():
            # close() removes a spill directory the queue created; the
            # restored segments are about to spill again, so recreate it.
            self._created_spill_dir = True
            self._spill_dir.mkdir(parents=True, exist_ok=True)
        self._mem_bound = state["mem_bound"]
        self._seq = state["seq"]
        self._heap = list(state["heap"])
        self._size = state["size"]
        self._spill_broken = bool(state["spill_broken"])
        self._last_segment = None
        self.stats = QueueStats()

        def build(lo: float, hi: float, entries: list, staged: int) -> _Segment:
            segment = _Segment(lo, hi)
            # The staging counter only paces the simulated page-flush
            # charge, so it is restored even when the real-spill rewrite
            # leaves the staging buffer itself empty.
            segment.staged_since_flush = staged
            batch = list(entries)
            if batch and self._spill_dir is not None:
                if self._write_segment(segment, batch):
                    return segment
            segment.entries = batch
            return segment

        self._split_segments = [
            build(lo, hi, entries, staged)
            for lo, hi, entries, staged in state["split_segments"]
        ]
        self._formula_segments = {
            index: build(lo, hi, entries, staged)
            for index, (lo, hi, entries, staged) in state["formula_segments"].items()
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _all_segments(self) -> list[_Segment]:
        return self._split_segments + list(self._formula_segments.values())

    def _write_segment(self, segment: _Segment, batch: list[tuple[float, Any]]) -> bool:
        """Append one checksummed batch to the segment's spill file.

        The on-disk format is one pickled ``(crc32, blob)`` record per
        batch, where ``blob`` is the pickled entry list — the checksum
        covers exactly the bytes that will be unpickled on read-back.

        Returns ``False`` when the write failed (disk full, permissions,
        an injected ``spill_write`` fault): the file is rolled back to
        the last good batch, the queue flips into memory-retention mode,
        and the caller must keep ``batch`` in its staging buffer.
        """
        if self._spill_broken:
            return False
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        path = segment.path if segment.path is not None else self._new_spill_path()
        offset: int | None = None
        try:
            if self._faults is not None:
                self._faults.maybe_fail_spill_write()
            with open(path, "ab") as f:
                offset = f.tell()
                pickle.dump(
                    (zlib.crc32(blob), blob), f, protocol=pickle.HIGHEST_PROTOCOL
                )
        except OSError as exc:
            # Roll back any partial append so earlier batches stay
            # readable, then retain this batch (and all later spills)
            # in memory: correctness over the memory bound.  A failure
            # before the append started (offset still None) must NOT
            # touch the file — it may hold valid earlier batches.
            try:
                if offset is not None and path.exists():
                    os.truncate(path, offset)
            except OSError:
                pass
            self._spill_broken = True
            self.stats.spill_write_failures += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "spill_write_failed", error=str(exc), segment_lo=segment.lo
                )
            return False
        segment.path = path
        segment.spilled += len(batch)
        return True

    def _read_batches(
        self, path: Path, expected: int, inject_faults: bool = True
    ) -> list[tuple[float, Any]]:
        """Validate and decode every checksummed batch in a spill file.

        Non-destructive: the file is neither unlinked nor truncated, so
        snapshotting can embed a live segment's spilled entries without
        disturbing it.  Every batch's CRC-32 is validated against its
        payload, and the total entry count against ``expected``; any
        mismatch — bit rot, truncation, an injected ``spill_read`` fault
        — raises :class:`SpillCorruptionError`.  ``inject_faults=False``
        skips the injection hook (snapshot reads must not advance the
        ``spill_read`` occurrence counter the drain path relies on).
        """
        loaded: list[tuple[float, Any]] = []
        corrupt: str | None = None
        with open(path, "rb") as f:
            while corrupt is None:
                try:
                    record = pickle.load(f)
                except EOFError:
                    break
                except Exception as exc:
                    corrupt = f"unreadable batch framing ({exc})"
                    break
                try:
                    checksum, blob = record
                except (TypeError, ValueError):
                    corrupt = "bad batch record shape"
                    break
                if inject_faults and self._faults is not None:
                    blob = self._faults.maybe_corrupt(blob)
                if zlib.crc32(blob) != checksum:
                    corrupt = "checksum mismatch"
                    break
                try:
                    loaded.extend(pickle.loads(blob))
                except Exception as exc:
                    corrupt = f"bad batch payload ({exc})"
                    break
        if corrupt is None and len(loaded) != expected:
            corrupt = (
                f"expected {expected} spilled entries, "
                f"read {len(loaded)} (truncated file)"
            )
        if corrupt is not None:
            if self.tracer.enabled:
                self.tracer.event(
                    "spill_corruption", path=str(path), detail=corrupt
                )
            raise SpillCorruptionError(f"spill segment {path.name}: {corrupt}")
        return loaded

    def _read_segment(self, segment: _Segment) -> list[tuple[float, Any]]:
        """Drain a segment: checksummed file batches plus staging.

        Destructive wrapper over :meth:`_read_batches`: on success the
        spill file is unlinked and the staging buffer cleared.  The
        raising path leaves the file registered on the segment, so
        :meth:`close` still unlinks it.
        """
        loaded: list[tuple[float, Any]] = []
        path = segment.path
        if path is not None and path.exists():
            loaded = self._read_batches(path, segment.spilled)
            path.unlink()
            segment.path = None
        segment.spilled = 0
        loaded.extend(segment.entries)
        segment.entries = []
        return loaded

    def _entries_per_page(self) -> int:
        return max(self._disk.cost_model.page_size // self._entry_bytes, 1)

    def _pages_for(self, count: int) -> int:
        return -(-count // self._entries_per_page()) if count else 0

    def _boundary(self, index: int) -> float:
        """Distance boundary ``sqrt(index * n * rho)`` or ``inf``."""
        if self._rho is None or index >= MAX_FORMULA_SEGMENTS:
            return math.inf
        return math.sqrt(index * self._capacity * self._rho)

    def _segment_for(self, distance: float) -> _Segment:
        """Find or create the segment whose range contains ``distance``."""
        cached = self._last_segment
        if cached is not None and cached.lo <= distance < cached.hi:
            return cached
        for segment in self._split_segments:
            if segment.lo <= distance < segment.hi:
                self._last_segment = segment
                return segment
        if self._rho is None:
            # Split-only mode: one open-ended overflow pile.
            segment = _Segment(self._mem_bound, math.inf)
            self._split_segments.append(segment)
            self._last_segment = segment
            return segment
        quotient = distance * distance / (self._capacity * self._rho)
        # A square that overflows (or a tiny rho) reads inf: never int()
        # it.  ``<`` also sends NaN to the open-ended tail.
        if quotient < MAX_FORMULA_SEGMENTS:
            index = max(int(quotient), 1)
        else:
            index = MAX_FORMULA_SEGMENTS - 1
        # Truncating float division and the sqrt in _boundary() can
        # disagree by one index at an exact boundary; nudge so that
        # boundary(index) <= distance < boundary(index + 1) holds for
        # the same boundary values routing and swap-in use.
        while index > 1 and self._boundary(index) > distance:
            index -= 1
        while (
            index < MAX_FORMULA_SEGMENTS - 1
            and self._boundary(index + 1) <= distance
        ):
            index += 1
        segment = self._formula_segments.get(index)
        if segment is None:
            segment = _Segment(self._boundary(index), self._boundary(index + 1))
            self._formula_segments[index] = segment
        self._last_segment = segment
        return segment

    def _fresh_heap(
        self, entries: list[tuple[float, Any]]
    ) -> list[tuple[float, int, Any]]:
        """Build a heap from ``(distance, payload)`` pairs with fresh seqs.

        Seqs come off the shared counter so they are unique across the
        queue's lifetime — two triples can never compare equal through
        ``(distance, seq)``, which is what keeps payloads out of every
        comparison.
        """
        seq = self._seq
        heap = [
            (distance, seq - i, payload)
            for i, (distance, payload) in enumerate(entries)
        ]
        self._seq = seq - len(heap)
        heapq.heapify(heap)
        return heap

    def _split(self) -> None:
        """Move the longer-distance half of a full heap to disk."""
        self.stats.splits += 1
        items = [(distance, payload) for distance, _, payload in self._heap]
        self._heap = []
        items.sort(key=lambda item: item[0])
        self._charge_sort(len(items))
        keep = len(items) // 2
        # The new memory bound is moved[0][0] and the boundary is
        # half-open: keys equal to it must all land on the segment side,
        # so walk the split point back over any tie block.  When every
        # key is the same the whole heap moves out (keep == 0) and the
        # next pop swaps it straight back in.
        boundary_key = items[keep][0]
        while keep > 0 and items[keep - 1][0] == boundary_key:
            keep -= 1
        kept, moved = items[:keep], items[keep:]
        old_bound = self._mem_bound
        self._mem_bound = moved[0][0]
        self._last_segment = None
        self._heap = self._fresh_heap(kept)
        segment = _Segment(self._mem_bound, old_bound)
        if self._spill_dir is None or not self._write_segment(segment, moved):
            segment.entries = moved
        self.stats.spilled_entries += len(moved)
        self._split_segments.insert(0, segment)
        self._disk.sequential_write(self._pages_for(len(moved)))
        if self.tracer.enabled:
            self.tracer.event(
                "queue_split", moved=len(moved), kept=keep,
                new_bound=self._mem_bound,
            )

    def _next_segment(self) -> _Segment | None:
        """The nearest non-empty segment, dropping exhausted ones."""
        self._last_segment = None
        while self._split_segments and not self._split_segments[0].total():
            self._split_segments.pop(0)
        if self._split_segments:
            return self._split_segments[0]
        while self._formula_segments:
            index = min(self._formula_segments)
            segment = self._formula_segments[index]
            if segment.total():
                return segment
            del self._formula_segments[index]
        return None

    def _swap_in(self) -> None:
        """Refill the empty heap from the nearest disk segment."""
        segment = self._next_segment()
        if segment is None:
            raise IndexError("pop from empty MainQueue")
        self.stats.swap_ins += 1
        entries = (
            self._read_segment(segment)
            if self._spill_dir is not None
            else segment.entries
        )
        if self.tracer.enabled:
            self.tracer.event(
                "queue_swap_in", entries=len(entries),
                segment_lo=segment.lo, overflow=len(entries) > self._capacity,
            )
        self._disk.sequential_read(self._pages_for(len(entries)))
        self._charge_sort(len(entries))
        if len(entries) <= self._capacity:
            self._heap = self._fresh_heap(entries)
            self._mem_bound = segment.hi
            segment.entries = []
            self._drop(segment)
        else:
            entries.sort(key=lambda item: item[0])
            self._heap = self._fresh_heap(entries[: self._capacity])
            remainder = entries[self._capacity :]
            segment.lo = remainder[0][0]
            segment.staged_since_flush = 0
            self._mem_bound = segment.lo
            if self._spill_dir is None or not self._write_segment(segment, remainder):
                segment.entries = remainder
            else:
                segment.entries = []
            self._disk.sequential_write(self._pages_for(len(remainder)))

    def _drop(self, segment: _Segment) -> None:
        if self._last_segment is segment:
            self._last_segment = None
        if self._split_segments and self._split_segments[0] is segment:
            self._split_segments.pop(0)
            return
        for index, candidate in self._formula_segments.items():
            if candidate is segment:
                del self._formula_segments[index]
                return

    def _charge_sort(self, count: int) -> None:
        if count > 1:
            self._disk.charge_cpu(
                self._disk.cost_model.cpu_sort_per_element
                * count
                * math.log2(count)
            )
