"""The distance queue: a k-bounded max-heap of candidate distances.

The k-distance join algorithms maintain the k smallest object-pair
distances seen so far.  The maximum of those — ``qDmax`` — is a *safe*
pruning cutoff: any pair whose minimum distance exceeds it cannot belong
to the k nearest pairs (paper Section 2.1).  While fewer than k distances
have been seen, the cutoff is infinite.
"""

from __future__ import annotations

import heapq
import math


class DistanceQueue:
    """Max-heap bounded to ``k`` entries, exposing the cutoff ``qDmax``.

    Backed by :mod:`heapq` over *negated* distances (a min-heap of
    negatives is a max-heap), with the cutoff cached as a plain
    attribute.  Both choices are pure hot-path mechanics: the engines
    read ``cutoff`` several times per queue operation (every sweep limit
    and insertion guard goes through qDmax), and the retained multiset —
    the k smallest distances seen — is the same whatever the heap's
    internal layout, so this cannot change any result stream.

    Parameters
    ----------
    k:
        Stopping cardinality of the query; the queue never holds more than
        ``k`` distances.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._neg: list[float] = []
        self._cutoff = math.inf
        self.insertions = 0

    def insert(self, distance: float) -> None:
        """Offer a distance; keeps only the k smallest seen so far."""
        self.insertions += 1
        neg = self._neg
        if len(neg) < self.k:
            heapq.heappush(neg, -distance)
            if len(neg) == self.k:
                self._cutoff = -neg[0]
        elif distance < self._cutoff:
            heapq.heapreplace(neg, -distance)
            self._cutoff = -neg[0]

    def push_many(self, distances) -> None:
        """Offer many distances at once; same retained multiset as a loop.

        The retained state — the k smallest distances seen — is order
        independent, so bulk insertion is trivially exact.  While the
        heap is still filling, offers are collected and sifted in one
        ``heapify`` pass instead of k pushes; past that point each
        surviving offer is a single ``heapreplace``.  Used by the flat
        hot path and the parallel engine's pair-exchange commit.
        """
        neg = self._neg
        k = self.k
        fill = k - len(neg)
        if fill > 0:
            head = distances[:fill]
            self.insertions += len(head)
            neg.extend(-distance for distance in head)
            heapq.heapify(neg)
            if len(neg) == k:
                self._cutoff = -neg[0]
            distances = distances[fill:]
        cutoff = self._cutoff
        for distance in distances:
            self.insertions += 1
            if distance < cutoff:
                heapq.heapreplace(neg, -distance)
                cutoff = -neg[0]
        self._cutoff = cutoff

    @property
    def cutoff(self) -> float:
        """``qDmax``: the k-th smallest distance seen, or ``inf`` if < k."""
        return self._cutoff

    def __len__(self) -> int:
        return len(self._neg)

    def distances(self) -> list[float]:
        """All retained distances, unordered (for tests and diagnostics)."""
        return [-value for value in self._neg]

    def snapshot(self) -> dict:
        """Picklable image of the retained distances and cutoff."""
        return {"k": self.k, "neg": list(self._neg), "cutoff": self._cutoff}

    def restore(self, state: dict) -> None:
        """Rebuild from :meth:`snapshot`; ``insertions`` starts fresh.

        (The checkpointed stats prefix carries the pre-crash insertion
        count; the resumed run's counters are merged on top.)
        """
        if state["k"] != self.k:
            raise ValueError(f"checkpoint k={state['k']} != queue k={self.k}")
        self._neg = list(state["neg"])
        self._cutoff = state["cutoff"]
        self.insertions = 0
