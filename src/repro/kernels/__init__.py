"""Batched distance kernels with interchangeable backends.

The plane-sweep inner loops spend nearly all CPU computing per-pair MBR
distances one at a time.  This package evaluates whole sweep windows in
one call instead.  Two backends implement the same kernel API:

- :class:`~repro.kernels.numpy_backend.NumpyKernels` — vectorized over
  packed coordinate arrays (the default when NumPy is importable);
- :class:`~repro.kernels.python_backend.PythonKernels` — a pure-Python
  fallback that keeps the library dependency-free.

Both backends sweep over the same flat tree images
(:mod:`repro.kernels.arena`): :mod:`repro.kernels.flat` serves every
node side from the arena, sorted with NumPy or in pure Python, and only
a batched backend gets packed windows.

Backends are *numerically interchangeable*: every kernel computes
minimum distances as ``sqrt(dx*dx + dy*dy)`` with the same ``dx == 0`` /
``dy == 0`` shortcuts as the scalar
:func:`repro.geometry.distances.min_distance`, so result streams are
bit-identical whichever backend runs.  They are also *cost-model
invariant*: backends never touch the simulated clock — engines charge
``cpu_real_distance`` per logical distance through
:class:`~repro.core.stats.Instruments` regardless of how the arithmetic
was performed.

Selection happens once per join run: an explicit name (``JoinConfig``'s
``kernels`` field) wins, then the ``REPRO_KERNELS`` environment variable
(``numpy`` or ``python``), then auto-detection.
"""

from __future__ import annotations

import os

from repro.kernels.python_backend import PythonKernels

__all__ = [
    "resolve_backend",
    "mindist_batch",
    "maxdist_batch",
]

_BACKENDS: dict[str, object] = {}
_NUMPY_AVAILABLE: bool | None = None


def _numpy_available() -> bool:
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_AVAILABLE = True
        except ImportError:  # pragma: no cover - exercised by the no-NumPy CI leg
            _NUMPY_AVAILABLE = False
    return _NUMPY_AVAILABLE


def resolve_backend(name: str | None = None):
    """Return the kernels backend for ``name``.

    ``None`` falls back to the ``REPRO_KERNELS`` environment variable and
    then to auto-detection (NumPy when importable, else pure Python).
    Backends are stateless singletons; repeated calls return the same
    object.
    """
    requested = name or os.environ.get("REPRO_KERNELS") or ""
    if not requested:
        requested = "numpy" if _numpy_available() else "python"
    backend = _BACKENDS.get(requested)
    if backend is not None:
        return backend
    if requested == "python":
        backend = PythonKernels()
    elif requested == "numpy":
        if not _numpy_available():  # pragma: no cover - image always has numpy
            raise ValueError(
                "kernels backend 'numpy' requested but numpy is not importable; "
                "set REPRO_KERNELS=python or install numpy"
            )
        from repro.kernels.numpy_backend import NumpyKernels

        backend = NumpyKernels()
    else:
        raise ValueError(
            f"unknown kernels backend {requested!r}; pick 'numpy' or 'python'"
        )
    _BACKENDS[requested] = backend
    return backend


def mindist_batch(rect, rects, backend=None) -> list[float]:
    """Minimum distances from ``rect`` to each of ``rects``."""
    return (backend or resolve_backend()).mindist_batch(rect, rects)


def maxdist_batch(rect, rects, backend=None) -> list[float]:
    """Maximum distances from ``rect`` to each of ``rects``."""
    return (backend or resolve_backend()).maxdist_batch(rect, rects)
