"""Cost model for the simulated execution environment.

The paper's experimental platform (Section 5.1):

- 4 KB pages for both disk I/O and R*-tree nodes;
- ~0.5 MB/s effective disk bandwidth for random accesses;
- ~5 MB/s for sequential accesses;
- 512 KB defaults for the in-memory part of the main queue and for the
  R-tree buffer.

CPU costs are modeled with per-operation constants calibrated to a late-90s
workstation; they matter only in that distance computations and queue
operations contribute measurably (but less than I/O) to response time,
which matches the paper's observed behavior.  All constants are
parameters, so sensitivity studies are easy.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Modeled CPU seconds one parallel-engine task should cost: small
#: enough that a handful of workers see dozens of tasks to balance,
#: large enough that per-task dispatch overhead stays negligible.
SHM_TASK_SECONDS = 0.02


@dataclass(frozen=True, slots=True)
class CostModel:
    """Device and CPU cost parameters for the simulated clock.

    Attributes
    ----------
    page_size:
        Page size in bytes (disk transfer unit and R-tree node size).
    random_bandwidth:
        Effective bytes/second for random page accesses.
    sequential_bandwidth:
        Effective bytes/second for sequential multi-page transfers.
    cpu_real_distance:
        Seconds per real (Euclidean) distance computation.
    cpu_axis_distance:
        Seconds per axis-distance computation (a subtraction and compare).
    cpu_queue_op:
        Seconds per heap insert/remove, excluding any I/O.
    cpu_sort_per_element:
        Seconds per element per comparison pass when sorting child lists
        for the plane sweep.
    """

    page_size: int = 4096
    random_bandwidth: float = 0.5 * 1024 * 1024
    sequential_bandwidth: float = 5.0 * 1024 * 1024
    cpu_real_distance: float = 2.0e-6
    cpu_axis_distance: float = 0.4e-6
    cpu_queue_op: float = 1.0e-6
    cpu_sort_per_element: float = 0.5e-6

    def random_read_time(self, pages: int = 1) -> float:
        """Simulated seconds to read ``pages`` pages at random locations."""
        return pages * self.page_size / self.random_bandwidth

    def sequential_io_time(self, pages: int) -> float:
        """Simulated seconds for a sequential transfer of ``pages`` pages."""
        return pages * self.page_size / self.sequential_bandwidth

    def pages_for_bytes(self, nbytes: int) -> int:
        """Number of pages needed to hold ``nbytes`` (at least one)."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.page_size)

    def shm_split_threshold(
        self, workers: int, task_seconds: float = SHM_TASK_SECONDS
    ) -> float:
        """Estimated pair count above which a parallel-engine task splits.

        The parallel engine splits a task when its estimated work —
        candidate pairs times ``cpu_real_distance`` — exceeds a modeled
        per-task CPU budget, scaled down by the worker count so more
        workers see proportionally finer tasks to balance.
        The floor keeps tasks from shrinking below one node-pair block,
        where dispatch overhead would dominate.
        """
        return max(1024.0, task_seconds / self.cpu_real_distance / max(1, workers))


DEFAULT_COST_MODEL = CostModel()

KIB = 1024
"""Bytes per KiB, for readable memory-size configuration."""

DEFAULT_QUEUE_MEMORY = 512 * KIB
"""Paper default: in-memory portion of the main queue."""

DEFAULT_BUFFER_MEMORY = 512 * KIB
"""Paper default: R-tree buffer pool size."""
