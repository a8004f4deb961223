"""Parallel k-distance join processing.

The sequential engines in :mod:`repro.core` process one candidate space
with one main queue.  This package answers AM-KDJ's query as a bounded
sweep over per-node blocks of both trees: the ``(root, root)`` node
pair is split into cost-model-sized tasks that forked workers pull and
drain depth-first, sharing the global pruning bound ``qDmax`` through
one cell, and a stage that comes up short widens its cap and re-runs.

The engine is :func:`repro.parallel.engine.parallel_kdj`, also reached
through ``JoinConfig(parallel=N)`` / ``k_distance_join(..., parallel=N)``
for AM-KDJ with N > 1.  It forks N worker processes at N >= 2 on Linux,
and drains every task in the calling thread otherwise.

See ``docs/internals.md`` for the traversal, the scheduler and the
stage verification argument.
"""

from repro.parallel.engine import parallel_kdj

__all__ = ["parallel_kdj"]
