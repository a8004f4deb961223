"""Distance kernels over whole node blocks, and the flat tree images.

The plane sweep computes its distances one at a time, inline: an
anchor's scan averages about two pairs, too short for a vector call to
pay.  Two callers evaluate whole node blocks instead, and only they go
through a kernels backend:

- HS pairs a partner with *every* child of the node it expands, so the
  child list is one batch
  (:meth:`~repro.core.stats.Instruments.mindist_within_items`);
- the shared-memory engine (:mod:`repro.parallel.steal`) crosses two
  node blocks, or one rect and a block, of the flat images per
  expansion (``cross_within``/``block_within``).

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

The package also holds the flat tree images (:mod:`repro.kernels.arena`)
and the sequential engines' arena-backed sweep sides
(:mod:`repro.kernels.flat`).
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
