"""Compensation queue for the adaptive multi-stage algorithms.

During the aggressive pruning stage, every *expanded* non-object pair is
recorded here together with enough bookkeeping (per-anchor resume
positions, kept by the plane-sweep engine) to later re-examine only the
child pairs that aggressive pruning skipped.

The paper observes that a compensation queue stores node pairs only —
never object pairs — so its worst case ``O(|R_node| x |S_node|)`` is far
below the main queue's ``O(|R_obj| x |S_obj|)``, and in practice it stayed
under 0.5% of the main queue's size; it is therefore assumed memory
resident.  We still meter its peak size so that assumption can be checked
per run.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")


class CompensationQueue(Generic[T]):
    """FIFO of expanded-pair records awaiting possible compensation."""

    def __init__(self) -> None:
        self._items: deque[T] = deque()
        self.total_enqueued = 0
        self.peak_size = 0

    def enqueue(self, record: T) -> None:
        """Record an aggressively-expanded pair."""
        self._items.append(record)
        self.total_enqueued += 1
        if len(self._items) > self.peak_size:
            self.peak_size = len(self._items)

    def drain(self) -> Iterator[T]:
        """Yield and remove all records (start of a compensation stage)."""
        while self._items:
            yield self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def snapshot(self) -> dict:
        """Picklable image: pending records plus the peak/total gauges.

        The records themselves carry the per-anchor resume positions
        (:class:`~repro.core.planesweep.ExpansionRecord` holds them in
        its ``anchors`` array), so snapshotting the FIFO captures exactly
        where each pending compensation would pick up.
        """
        return {
            "items": list(self._items),
            "total_enqueued": self.total_enqueued,
            "peak_size": self.peak_size,
        }

    def restore(self, state: dict) -> None:
        """Rebuild from :meth:`snapshot`, preserving FIFO order.

        Unlike the operation counters elsewhere, ``total_enqueued`` and
        ``peak_size`` are restored as-is: the adaptive engines read them
        directly for stage decisions and final stats, and they describe
        the logical queue, not I/O performed by this process.
        """
        self._items = deque(state["items"])
        self.total_enqueued = state["total_enqueued"]
        self.peak_size = state["peak_size"]
