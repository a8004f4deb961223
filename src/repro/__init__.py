"""repro — Adaptive Multi-Stage Distance Join Processing.

A faithful, from-scratch reproduction of Shin, Moon & Lee (SIGMOD 2000):
k-distance joins and incremental distance joins over R*-trees, with
bidirectional node expansion, the optimized plane sweep (sweeping-axis
and -direction selection), adaptive multi-stage processing with
aggressive pruning and compensation, and hybrid memory/disk queue
management — plus the baselines the paper compares against
(Hjaltason–Samet joins and spatial-join-then-sort).

Quickstart::

    from repro import RTree, Rect, k_distance_join

    hotels = RTree.bulk_load([(Rect.from_point(x, y), i) ...])
    restaurants = RTree.bulk_load([...])
    top10 = k_distance_join(hotels, restaurants, k=10)
    for distance, hotel, restaurant in top10:
        print(hotel, restaurant, distance)
"""

from repro.core.api import (
    IncrementalJoin,
    JoinConfig,
    JoinResult,
    JoinRunner,
    incremental_distance_join,
    k_distance_join,
    k_self_distance_join,
)
from repro.core.pairs import ResultPair
from repro.core.variants import all_nearest_neighbors, within_distance_join
from repro.parallel.engine import parallel_kdj
from repro.core.stats import JoinStats
from repro.geometry.rect import Rect
from repro.resilience import (
    Deadline,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    JoinDeadlineExceeded,
    ReproError,
    SpillCorruptionError,
    SpillError,
)
from repro.rtree.tree import RTree
from repro.storage.cost import CostModel

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "Deadline",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "IncrementalJoin",
    "JoinConfig",
    "JoinDeadlineExceeded",
    "JoinResult",
    "JoinRunner",
    "JoinStats",
    "ReproError",
    "SpillCorruptionError",
    "SpillError",
    "parallel_kdj",
    "Rect",
    "ResultPair",
    "RTree",
    "incremental_distance_join",
    "k_distance_join",
    "k_self_distance_join",
    "all_nearest_neighbors",
    "within_distance_join",
    "__version__",
]
