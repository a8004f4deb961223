"""Priority-queue machinery for distance join processing.

Three queues drive the algorithms (paper Sections 2.1 and 4.4):

- the **main queue** (:class:`~repro.queues.main_queue.MainQueue`): a
  min-priority queue of candidate pairs, hybrid memory/disk with
  range-partitioned spill segments;
- the **distance queue**
  (:class:`~repro.queues.distance_queue.DistanceQueue`): a k-bounded
  max-heap of the k smallest object-pair distances seen so far, whose
  maximum is the safe pruning cutoff ``qDmax``;
- the **compensation queue**
  (:class:`~repro.queues.compensation.CompensationQueue`): the record of
  aggressively-expanded pairs that the multi-stage algorithms revisit.

:mod:`~repro.queues.external_sort` provides the memory-budgeted external
merge sort used by the SJ-SORT baseline.  Every heap underneath is
the standard library's ``heapq``.
"""

from repro.queues.distance_queue import DistanceQueue
from repro.queues.main_queue import MainQueue, QueueStats
from repro.queues.compensation import CompensationQueue
from repro.queues.external_sort import ExternalSorter

__all__ = [
    "CompensationQueue",
    "DistanceQueue",
    "ExternalSorter",
    "MainQueue",
    "QueueStats",
]
