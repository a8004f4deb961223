"""Merging worker result batches into one global answer.

:class:`PairwiseBound` is the parallel engine's shared global ``qDmax``:
the parent commits every batch a worker flushes into a k-bounded
:class:`~repro.queues.distance_queue.DistanceQueue`, and its cutoff
caps how deep every worker still needs to sweep.  Distances always
belong to real object pairs, so the cutoff is a safe upper bound on the
true k-th distance at all times — exactly the property ``qDmax`` has
inside the sequential engines.
"""

from __future__ import annotations

import math

from repro.queues.distance_queue import DistanceQueue


class PairwiseBound:
    """The global ``qDmax``, fed once per distinct object pair.

    Tolerates fewer than k offers (cutoff ``inf``).  The parallel
    engine re-enqueues a failed worker's tasks, running or prefetched,
    and a re-run must never count a pair twice.  Offering the
    same pair's distance twice into a k-bounded queue would deflate the
    cutoff below the true k-th distance — an unsafe bound — so offers
    are keyed by pair identity: the first offer of a pair counts,
    repeats are rejected (and the caller drops the duplicate result
    with them).  Only the parent writes it; workers see the cutoff
    through a shared cell the parent republishes after every commit.
    """

    def __init__(self, k: int) -> None:
        self._queue = DistanceQueue(k)
        self._seen: set[tuple[int, int]] = set()

    @property
    def cutoff(self) -> float:
        return self._queue.cutoff

    @property
    def is_finite(self) -> bool:
        return not math.isinf(self._queue.cutoff)

    @property
    def insertions(self) -> int:
        return self._queue.insertions

    def offer_pairs(
        self, pairs: list[tuple[float, int, int]]
    ) -> list[tuple[float, int, int]]:
        """Offer a committed batch; returns the pairs that were new.

        Dedupes against all prior offers first, then feeds the fresh
        distances through :meth:`DistanceQueue.push_many` in one bulk
        insertion.  The retained multiset (and so the cutoff) matches
        offering the pairs one at a time exactly — the k smallest
        distances seen are order independent.
        """
        seen = self._seen
        fresh: list[tuple[float, int, int]] = []
        for pair in pairs:
            key = (pair[1], pair[2])
            if key not in seen:
                seen.add(key)
                fresh.append(pair)
        if fresh:
            self._queue.push_many([pair[0] for pair in fresh])
        return fresh
