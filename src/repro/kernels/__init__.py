"""Distance kernels over whole node blocks, the parallel engine's blocks,
and HS's child-list scan.

The plane sweep computes its distances one at a time, inline: an
anchor's scan averages about two pairs, too short for a vector call to
pay.  HS pairs a partner with *every* child of the node it expands, but
under a finite bound only a couple of children per call can matter, so
its scan is scalar too (:mod:`repro.kernels.window`, through
:meth:`~repro.core.stats.Instruments.mindist_within_items`): it counts
and charges every child's distance and computes only the children
within the bound's window along one sorted axis.  Only the parallel
engine (:mod:`repro.parallel.runtime`) evaluates whole node blocks,
crossing two node blocks, or one rect and a block, per expansion
(``cross_within``/``block_within``), and only it goes through a kernels
backend.

Two backends implement those calls:

- :class:`~repro.kernels.numpy_backend.NumpyKernels` — vectorized over
  coordinate arrays, chosen whenever NumPy imports;
- :class:`~repro.kernels.python_backend.PythonKernels` — the pure-Python
  fallback that keeps the library dependency-free.

Backends are *numerically interchangeable*: every kernel computes a
minimum distance exactly as the scalar
:func:`repro.geometry.distances.min_distance` does (``sqrt(dx*dx +
dy*dy)`` with the ``dx == 0`` / ``dy == 0`` shortcuts, the
``max(dx, dy)`` fallback when both squares underflow and
``math.hypot`` when they overflow), so result streams are bit-identical
whichever backend runs.  They are also *cost-model invariant*: engines
charge ``cpu_real_distance`` per logical distance through
:class:`~repro.core.stats.Instruments` however the arithmetic was
performed.

The package also holds the parallel engine's node blocks
(:mod:`repro.kernels.arena`): one read-only block of each node's
entries per tree version.  The sequential engines read nodes through
``Node.entries`` only.
"""

from __future__ import annotations

from repro.kernels.python_backend import PythonKernels

__all__ = ["resolve_backend"]

#: The backend every join uses, chosen on first use.
_BACKEND: object | None = None


def resolve_backend():
    """The kernels backend: NumPy's when NumPy imports, else pure Python.

    Chosen once per process; repeated calls return the same object.
    """
    global _BACKEND
    if _BACKEND is None:
        try:
            from repro.kernels.numpy_backend import NumpyKernels
        except ImportError:
            _BACKEND = PythonKernels()
        else:
            _BACKEND = NumpyKernels()
    return _BACKEND
