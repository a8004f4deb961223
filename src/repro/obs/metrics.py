"""Metrics registry: counters, gauges and histograms for join runs.

Where the tracer answers *when*, the registry answers *how much* — and
folds into the existing metric plumbing instead of adding a second one:
:meth:`MetricsRegistry.snapshot` flattens every instrument into numeric
``name.field`` keys that :meth:`Instruments.fill` merges into
``JoinStats.extra``, so ``JoinStats.merge`` aggregates worker registries
and the regression baselines see the new numbers for free.

Because merged ``extra`` values are aggregated key-wise, every snapshot
field carries its merge kind in its key: counters and histogram fields
(``count``, ``sum``, per-bucket counts — all additive) are summed, while
gauges export under the :data:`GAUGE_KEY_SUFFIX` marker, which
``JoinStats.merge`` treats as *max* — a point-in-time reading (queue
depth, worker occupancy) from N workers is a peak, not a total, and
summing it would produce a meaningless number.

Histograms bucket by power of two (``frexp`` exponent), which covers
result distances and queue depths across many orders of magnitude with
no prior knowledge of scale; p50/p95/p99 are derived from the bucket
counts at render time (:meth:`Histogram.percentile`,
:func:`snapshot_percentiles`).
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "Counter",
    "GAUGE_KEY_SUFFIX",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StageMeter",
    "histogram_names",
    "snapshot_percentiles",
]

#: Key suffix marking a snapshot field as a point-in-time gauge reading.
#: ``JoinStats.merge`` maxes (rather than sums) extras under this suffix:
#: concurrent workers' instantaneous readings do not stack.
GAUGE_KEY_SUFFIX = ".gauge"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict[str, float]:
        return {self.name: self.value}


class Gauge:
    """A value that goes up and down; exports the last set value.

    Snapshots export under ``name + GAUGE_KEY_SUFFIX`` so that
    ``JoinStats.merge`` knows to max the readings from concurrent
    workers instead of summing them.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict[str, float]:
        return {f"{self.name}{GAUGE_KEY_SUFFIX}": self.value}


class Histogram:
    """Power-of-two bucketed distribution of observed values.

    Bucket ``e`` counts observations in ``[2^(e-1), 2^e)`` (``frexp``
    exponent); zero and negative observations land in a dedicated
    ``zero`` bucket.  Exports only additive fields — ``count``, ``sum``
    and the bucket counts — so merged snapshots are exact.
    """

    __slots__ = ("name", "count", "total", "zero", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.zero = 0
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value <= 0.0 or not math.isfinite(value):
            self.zero += 1
            return
        exponent = math.frexp(value)[1]
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (``q`` in [0, 1]) from the buckets.

        Interpolates linearly inside the covering power-of-two bucket
        ``[2^(e-1), 2^e)``, so the error is bounded by the bucket width;
        the zero bucket reports 0.0.
        """
        return _bucket_percentile(q, self.count, self.zero, self.buckets)

    def percentiles(self, qs: Iterable[float] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        """``{"p50": ..., "p95": ...}`` for the requested quantiles."""
        return {f"p{round(q * 100):d}": self.percentile(q) for q in qs}

    def snapshot(self) -> dict[str, float]:
        out = {
            f"{self.name}.count": float(self.count),
            f"{self.name}.sum": self.total,
        }
        if self.zero:
            out[f"{self.name}.le_zero"] = float(self.zero)
        for exponent, count in sorted(self.buckets.items()):
            out[f"{self.name}.bucket_e{exponent}"] = float(count)
        return out


def _bucket_percentile(
    q: float, count: float, zero: float, buckets: dict[int, float]
) -> float:
    """Shared quantile kernel over frexp bucket counts.

    Works for a live :class:`Histogram` and for counts reconstructed
    from a flattened snapshot, so reports can derive percentiles from
    ``JoinStats.extra`` long after the registry is gone.
    """
    if count <= 0:
        return 0.0
    q = min(max(q, 0.0), 1.0)
    target = q * count
    cumulative = zero
    if cumulative >= target and zero > 0:
        return 0.0
    last_edge = 0.0
    for exponent in sorted(buckets):
        bucket_count = buckets[exponent]
        if bucket_count <= 0:
            continue
        low, high = 2.0 ** (exponent - 1), 2.0 ** exponent
        if cumulative + bucket_count >= target:
            return low + (high - low) * (target - cumulative) / bucket_count
        cumulative += bucket_count
        last_edge = high
    return last_edge


def snapshot_percentiles(
    extra: dict[str, float],
    name: str,
    qs: Iterable[float] = (0.5, 0.95, 0.99),
) -> dict[str, float] | None:
    """Reconstruct percentiles of histogram ``name`` from flattened keys.

    ``extra`` is any dict holding the ``name.count`` / ``name.le_zero`` /
    ``name.bucket_eN`` keys a :meth:`Histogram.snapshot` produced (e.g.
    ``JoinStats.extra`` after a merge).  Returns ``None`` when the
    histogram is absent or empty.
    """
    count = extra.get(f"{name}.count", 0.0)
    if not count:
        return None
    zero = extra.get(f"{name}.le_zero", 0.0)
    prefix = f"{name}.bucket_e"
    buckets: dict[int, float] = {}
    for key, value in extra.items():
        if key.startswith(prefix):
            try:
                buckets[int(key[len(prefix):])] = float(value)
            except (TypeError, ValueError):
                continue
    return {
        f"p{round(q * 100):d}": _bucket_percentile(q, count, zero, buckets)
        for q in qs
    }


def histogram_names(extra: dict[str, float]) -> list[str]:
    """Histogram base names present in a flattened snapshot dict."""
    names = []
    for key in extra:
        if key.endswith(".count") and isinstance(extra[key], (int, float)):
            base = key[: -len(".count")]
            if f"{base}.sum" in extra:
                names.append(base)
    return sorted(names)


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted flat.

    One registry serves one join run; its snapshot fields are
    sum-mergeable, so :meth:`JoinStats.merge` can fold runs together.
    """

    def __init__(self, prefix: str = "obs") -> None:
        self._prefix = prefix
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def key(self, name: str) -> str:
        """The snapshot key of the counter ``name``."""
        return f"{self._prefix}.{name}"

    def _get(self, kind: type, name: str) -> Counter | Gauge | Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(self.key(name))
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(Counter, name)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(Gauge, name)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(Histogram, name)  # type: ignore[return-value]

    def __iter__(self) -> Iterable[Counter | Gauge | Histogram]:
        # List copy: the live plane iterates from publisher/server threads
        # while the engine may still be registering instruments.
        return iter(list(self._instruments.values()))

    def snapshot(self) -> dict[str, float]:
        """Flat ``prefix.name[.field] -> value`` dict, merge-kind-keyed."""
        out: dict[str, float] = {}
        for instrument in list(self._instruments.values()):
            out.update(instrument.snapshot())
        return out


class StageMeter:
    """Per-stage deltas of the ``Instruments`` work counters.

    The aggregate counters tell you a run did N distance computations;
    the paper's Figures 14–15 need them *attributed to stages*.  Engines
    call :meth:`stage_end` at every stage boundary; the meter diffs the
    instrument counters against the previous boundary, records the
    deltas as ``stage.<name>.*`` counters and emits one trace counter
    event, so both the metrics snapshot and the timeline carry the
    breakdown.
    """

    __slots__ = ("_instr", "_last")

    def __init__(self, instr) -> None:
        self._instr = instr
        self._last = self._snap()

    def _snap(self) -> dict[str, float]:
        instr = self._instr
        return {
            "dist_comps": instr.real_distance_computations,
            "axis_comps": instr.axis_distance_computations,
            "node_accesses": (
                instr.accessor_r.physical_reads + instr.accessor_s.physical_reads
            ),
            "node_accesses_unbuffered": (
                instr.accessor_r.logical_accesses + instr.accessor_s.logical_accesses
            ),
            "sim_time": instr.disk.clock,
        }

    def carry(self, stage: str, extra: dict[str, float]) -> None:
        """Add the open ``stage``'s deltas so far to a stats ``extra``.

        A checkpoint's stats carry them, so a resumed run that merges
        that prefix still has stage deltas summing to its counters.
        Records nothing: the registry, the trace and the stage's own
        deltas at its end are unchanged.
        """
        metrics = self._instr.metrics
        if metrics is None:
            return
        for key, value in self._snap().items():
            name = metrics.key(f"stage.{stage}.{key}")
            extra[name] = extra.get(name, 0.0) + value - self._last[key]

    def stage_end(self, stage: str) -> dict[str, float]:
        """Close the current stage; record and return its work deltas."""
        now = self._snap()
        delta = {key: now[key] - self._last[key] for key in now}
        self._last = now
        metrics = self._instr.metrics
        if metrics is not None:
            for key, value in delta.items():
                metrics.counter(f"stage.{stage}.{key}").inc(value)
        tracer = self._instr.tracer
        if tracer.enabled:
            tracer.counter(f"stage:{stage}", **delta)
        return delta
