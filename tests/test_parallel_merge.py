"""Direct coverage for the parallel engine's global bound.

Every worker batch the parent commits goes through
:class:`PairwiseBound`; its cutoff is the ``qDmax`` that caps every
worker's sweep, so it must stay a true upper bound on the k-th distance
even when crash recovery re-offers pairs already seen.
"""

import math
import random

from repro.parallel.merge import PairwiseBound


class TestGlobalBound:
    """The k-bounded global ``qDmax`` half of :class:`PairwiseBound`."""

    def test_cutoff_inf_until_k_offers(self):
        bound = PairwiseBound(3)
        assert bound.offer_pairs([(5.0, 0, 0), (1.0, 1, 1)]) == [
            (5.0, 0, 0), (1.0, 1, 1),
        ]
        assert math.isinf(bound.cutoff)
        assert not bound.is_finite
        bound.offer_pairs([(3.0, 2, 2)])
        assert bound.cutoff == 5.0
        assert bound.is_finite

    def test_cutoff_tightens_with_better_offers(self):
        bound = PairwiseBound(2)
        bound.offer_pairs([(4.0, 0, 0), (3.0, 1, 1), (2.0, 2, 2), (1.0, 3, 3)])
        assert bound.cutoff == 2.0

    def test_insertions_counted(self):
        bound = PairwiseBound(2)
        bound.offer_pairs([(1.0, 0, 0), (2.0, 1, 1), (3.0, 2, 2)])
        assert bound.insertions == 3


class TestPairwiseBound:
    def test_duplicate_offer_rejected_and_not_counted(self):
        bound = PairwiseBound(2)
        assert bound.offer_pairs([(1.0, 7, 8)]) == [(1.0, 7, 8)]
        assert bound.offer_pairs([(1.0, 7, 8)]) == []
        assert bound.insertions == 1
        # A re-run task's batch: only the unseen pair is kept.
        assert bound.offer_pairs([(1.0, 7, 8), (2.0, 7, 9)]) == [(2.0, 7, 9)]
        assert bound.insertions == 2

    def test_duplicate_offers_cannot_deflate_cutoff(self):
        # k=2 with one real pair offered three times: a plain k-queue
        # would report cutoff 1.0 (two copies of the same pair), below
        # the true 2nd distance.  The pair-keyed bound stays infinite.
        bound = PairwiseBound(2)
        for _ in range(3):
            bound.offer_pairs([(1.0, 0, 0)])
        assert bound.offer_pairs([(1.0, 0, 0), (1.0, 0, 0)]) == []
        assert not bound.is_finite
        bound.offer_pairs([(9.0, 1, 1)])
        assert bound.cutoff == 9.0

    def test_distinct_pairs_same_distance_both_count(self):
        bound = PairwiseBound(2)
        assert len(bound.offer_pairs([(2.0, 0, 1), (2.0, 1, 0)])) == 2
        assert bound.cutoff == 2.0

    def test_batches_match_a_per_pair_reference(self):
        # Re-offered pairs in batches of random width: the cutoff after
        # every batch is the k-th smallest distance over distinct pairs.
        rng = random.Random(5)
        pairs = [
            (float(rng.randrange(50)), rng.randrange(20), rng.randrange(20))
            for _ in range(400)
        ]
        k = 25
        bound = PairwiseBound(k)
        seen: dict[tuple[int, int], float] = {}
        pos = 0
        while pos < len(pairs):
            batch = pairs[pos : pos + rng.randrange(1, 30)]
            pos += len(batch)
            fresh = []
            for distance, ref_r, ref_s in batch:
                if (ref_r, ref_s) not in seen:
                    seen[(ref_r, ref_s)] = distance
                    fresh.append((distance, ref_r, ref_s))
            assert bound.offer_pairs(batch) == fresh
            kept = sorted(seen.values())
            want = kept[k - 1] if len(kept) >= k else math.inf
            assert bound.cutoff == want
        assert bound.insertions == len(seen)
