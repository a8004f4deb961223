"""Memory-budgeted external merge sort on the simulated disk.

The SJ-SORT baseline (paper Section 5) runs an R-tree spatial join with a
``within(Dmax)`` predicate and then sorts the resulting pairs by distance.
With large ``k`` the intermediate result exceeds memory, so the sort must
be external; its I/O is a real part of the baseline's cost and is charged
to the same :class:`~repro.storage.disk.SimulatedDisk` as everything else.

Classic two-phase external merge sort:

1. **Run formation** — fill the memory budget, sort, write a sequential
   run.
2. **Multiway merge** — merge all runs through a ``heapq`` min-heap of
   ``(key, run id)`` heads, reading each run a page at a time.  (With the paper's parameters one
   merge pass always suffices; a multi-pass merge is implemented anyway
   for small memory budgets.)
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterable, Iterator

from repro.storage.disk import SimulatedDisk


class ExternalSorter:
    """Sorts ``(key, payload)`` streams under a memory budget.

    Parameters
    ----------
    disk:
        Simulated disk charged for run I/O and sort CPU.
    memory_bytes:
        Working memory for run formation and merge buffers.
    entry_bytes:
        Modeled on-disk size of one record.
    """

    def __init__(
        self, disk: SimulatedDisk, memory_bytes: int, entry_bytes: int = 48
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        self._disk = disk
        self._entry_bytes = entry_bytes
        self._capacity = max(memory_bytes // entry_bytes, 16)
        self.runs_created = 0
        self.merge_passes = 0

    # ------------------------------------------------------------------

    def sort(self, items: Iterable[tuple[float, Any]]) -> Iterator[tuple[float, Any]]:
        """Yield items in ascending key order, spilling runs as needed."""
        runs = self._form_runs(items)
        if not runs:
            return iter(())
        if len(runs) == 1:
            # A single run means everything fit in memory; no merge I/O.
            return iter(runs[0])
        fan_in = max(self._capacity // self._entries_per_page(), 2)
        while len(runs) > fan_in:
            self.merge_passes += 1
            runs = [
                self._merge_to_run(runs[i : i + fan_in])
                for i in range(0, len(runs), fan_in)
            ]
        self.merge_passes += 1
        return self._merge_stream(runs)

    # ------------------------------------------------------------------

    def _entries_per_page(self) -> int:
        return max(self._disk.cost_model.page_size // self._entry_bytes, 1)

    def _pages_for(self, count: int) -> int:
        return -(-count // self._entries_per_page()) if count else 0

    def _charge_sort_cpu(self, count: int) -> None:
        if count > 1:
            self._disk.charge_cpu(
                self._disk.cost_model.cpu_sort_per_element
                * count
                * math.log2(count)
            )

    def _form_runs(self, items: Iterable[tuple[float, Any]]) -> list[list[tuple[float, Any]]]:
        runs: list[list[tuple[float, Any]]] = []
        buffer: list[tuple[float, Any]] = []
        for item in items:
            buffer.append(item)
            if len(buffer) >= self._capacity:
                runs.append(self._close_run(buffer, spill=True))
                buffer = []
        if buffer:
            spill = bool(runs)  # a lone run stays in memory
            runs.append(self._close_run(buffer, spill=spill))
        return runs

    def _close_run(
        self, buffer: list[tuple[float, Any]], spill: bool
    ) -> list[tuple[float, Any]]:
        buffer.sort(key=lambda item: item[0])
        self._charge_sort_cpu(len(buffer))
        if spill:
            self._disk.sequential_write(self._pages_for(len(buffer)))
            self.runs_created += 1
        return buffer

    def _merge_to_run(
        self, runs: list[list[tuple[float, Any]]]
    ) -> list[tuple[float, Any]]:
        merged = list(self._merge_stream(runs))
        self._disk.sequential_write(self._pages_for(len(merged)))
        self.runs_created += 1
        return merged

    def _merge_stream(
        self, runs: list[list[tuple[float, Any]]]
    ) -> Iterator[tuple[float, Any]]:
        """K-way merge, charging a sequential page read per page consumed.

        A run holds one head in the heap at a time, so ``(key, run_id)``
        heads are unique: equal keys pop in run order.
        """
        per_page = self._entries_per_page()
        heap: list[tuple[float, int]] = []
        positions = [0] * len(runs)
        for run_id, run in enumerate(runs):
            if run:
                self._disk.sequential_read(1)
                heapq.heappush(heap, (run[0][0], run_id))
        while heap:
            _, run_id = heapq.heappop(heap)
            pos = positions[run_id]
            yield runs[run_id][pos]
            positions[run_id] = pos + 1
            nxt = positions[run_id]
            run = runs[run_id]
            if nxt < len(run):
                if nxt % per_page == 0:
                    self._disk.sequential_read(1)
                heapq.heappush(heap, (run[nxt][0], run_id))
