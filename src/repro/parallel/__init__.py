"""Parallel k-distance join processing.

The sequential engines in :mod:`repro.core` process one candidate space
with one main queue.  This package answers AM-KDJ's query as a bounded
sweep over zero-copy flat tree images: the ``(root, root)`` node pair
is split into cost-model-sized tasks that work-stealing workers drain
depth-first, sharing the global pruning bound ``qDmax`` through one
cell, and a stage that comes up short widens its cap and re-runs.

Entry point: :func:`repro.parallel.engine.parallel_kdj`, also reached
through ``JoinConfig(parallel=N)`` / ``k_distance_join(..., parallel=N)``
for AM-KDJ with N > 1.  ``JoinConfig.parallel_mode`` picks where the
workers run (``"shm-process"``, ``"shm-thread"`` or ``"shm-serial"``).

See ``docs/internals.md`` for the traversal, the steal protocol and the
stage verification argument.
"""

from repro.parallel.engine import parallel_kdj

__all__ = ["parallel_kdj"]
