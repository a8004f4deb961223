"""Deterministic, seeded fault-injection harness.

A :class:`FaultPlan` travels on ``JoinConfig.fault_plan`` (it pickles,
so process workers inherit it) and is consulted at seven injection
*sites*:

- ``worker_crash`` — a parallel worker raises
  :class:`~repro.resilience.errors.InjectedWorkerCrash` on entry;
- ``worker_kill`` — a parallel worker process hard-exits (``os._exit``),
  as an OOM kill would; degraded to a crash in a thread worker, where a
  hard exit would kill the whole run;
- ``worker_stall`` — a parallel worker sleeps ``stall_s`` seconds on
  entry, long enough to trip a configured per-worker timeout;
- ``spill_write`` — the main queue's next spill write raises
  ``OSError(ENOSPC)``;
- ``spill_read`` — the payload of a spill batch being read back is
  corrupted in memory before checksum validation, so the queue raises
  :class:`~repro.resilience.errors.SpillCorruptionError`;
- ``checkpoint_write`` — the next checkpoint write raises
  ``OSError(ENOSPC)`` before the atomic rename, so the previous
  checkpoint (if any) survives intact;
- ``checkpoint_read`` — the payload of a checkpoint being loaded is
  corrupted in memory before CRC validation, so recovery raises
  :class:`~repro.resilience.errors.CheckpointCorruptionError`.

Determinism: whether a site fires is a pure function of the plan's
``seed``, the site name, and the *occurrence index* — the worker id
for worker sites, a per-plan running counter for queue sites.  No
global state, no wall clock; the same plan against the same workload
fires the same faults.

Spec strings (the CLI's ``--inject-faults``) are comma-separated
tokens::

    worker_crash            fire on every occurrence
    worker_crash:0.5        fire with probability 0.5 (seeded)
    worker_crash:@2         fire only on occurrence index (worker id) 2
    spill_write:@0          first spill write fails with ENOSPC
    stall_s=0.4             stall duration (default 0.25)
    seed=7                  RNG seed (default 0)
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field

from repro.resilience.errors import FaultSpecError, InjectedWorkerCrash

__all__ = ["FAULT_SITES", "FaultPlan", "FaultSpec", "trip_worker_faults"]

#: Every valid injection-site name.
FAULT_SITES = frozenset(
    {
        "worker_crash",
        "worker_kill",
        "worker_stall",
        "spill_write",
        "spill_read",
        "checkpoint_write",
        "checkpoint_read",
    }
)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One armed injection site.

    ``probability`` applies per occurrence (seeded, deterministic);
    ``at`` restricts firing to exact occurrence indices.  Both default
    to "always fire".
    """

    site: str
    probability: float = 1.0
    at: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; pick one of {sorted(FAULT_SITES)}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise FaultSpecError(
                f"fault probability must be in (0, 1], got {self.probability}"
            )


@dataclass(slots=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries plus site counters.

    The per-site occurrence counters are *instance* state: a pickled
    copy (as shipped to a process worker) starts its own count, which
    keeps firing decisions deterministic per worker.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    stall_s: float = 0.25
    _counts: dict[str, int] = field(default_factory=dict, repr=False)

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from an ``--inject-faults`` spec string."""
        specs: list[FaultSpec] = []
        seed = 0
        stall_s = 0.25
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[5:])
                except ValueError as exc:
                    raise FaultSpecError(f"bad seed in {token!r}") from exc
                continue
            if token.startswith("stall_s="):
                try:
                    stall_s = float(token[8:])
                except ValueError as exc:
                    raise FaultSpecError(f"bad stall_s in {token!r}") from exc
                continue
            site, _, arg = token.partition(":")
            if not arg:
                specs.append(FaultSpec(site))
            elif arg.startswith("@"):
                try:
                    indices = tuple(int(part) for part in arg[1:].split(";"))
                except ValueError as exc:
                    raise FaultSpecError(f"bad occurrence index in {token!r}") from exc
                specs.append(FaultSpec(site, at=indices))
            else:
                try:
                    probability = float(arg)
                except ValueError as exc:
                    raise FaultSpecError(f"bad probability in {token!r}") from exc
                specs.append(FaultSpec(site, probability=probability))
        if not specs:
            raise FaultSpecError(f"no fault sites in spec {text!r}")
        return cls(specs=tuple(specs), seed=seed, stall_s=stall_s)

    def __reduce__(self):
        # Occurrence counters are instance state: a pickled copy (as
        # shipped to a process worker) starts its own count.
        return (FaultPlan, (self.specs, self.seed, self.stall_s))

    # -- firing decisions -----------------------------------------------

    def armed(self, site: str) -> bool:
        """Whether any spec targets ``site`` (cheap hot-path guard)."""
        return any(spec.site == site for spec in self.specs)

    def should_fire(self, site: str, index: int | None = None) -> bool:
        """Decide (deterministically) whether ``site`` fires now.

        ``index`` is the occurrence index; when omitted, a per-plan
        running counter for the site is used and advanced.
        """
        if index is None:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.at is not None and index not in spec.at:
                continue
            if spec.probability >= 1.0:
                return True
            # String seeding is stable across runs and Python versions
            # (tuple seeds were removed in 3.11).
            draw = random.Random(f"{self.seed}:{site}:{index}").random()
            if draw < spec.probability:
                return True
        return False

    # -- queue-site helpers ----------------------------------------------

    def maybe_fail_spill_write(self) -> None:
        """Raise ``OSError(ENOSPC)`` when the ``spill_write`` site fires."""
        if self.armed("spill_write") and self.should_fire("spill_write"):
            raise OSError(errno.ENOSPC, "injected: no space left on device")

    def maybe_corrupt(self, blob: bytes) -> bytes:
        """Corrupt a spill batch payload when ``spill_read`` fires.

        Alternates (deterministically, by occurrence) between flipping a
        byte and truncating the payload, so both corruption shapes are
        exercised.
        """
        if not self.armed("spill_read"):
            return blob
        index = self._counts.get("spill_read", 0)
        if not self.should_fire("spill_read"):
            return blob
        if not blob:
            return b"\x00"
        if index % 2 == 0:
            return bytes([blob[0] ^ 0xFF]) + blob[1:]
        return blob[: max(len(blob) // 2, 1)]

    # -- checkpoint-site helpers ------------------------------------------

    def maybe_fail_checkpoint_write(self) -> None:
        """Raise ``OSError(ENOSPC)`` when the ``checkpoint_write`` site fires."""
        if self.armed("checkpoint_write") and self.should_fire("checkpoint_write"):
            raise OSError(errno.ENOSPC, "injected: no space left on device")

    def maybe_corrupt_checkpoint(self, blob: bytes) -> bytes:
        """Corrupt a checkpoint payload when ``checkpoint_read`` fires.

        Same corruption shapes as :meth:`maybe_corrupt`: alternates
        between flipping a byte and truncating the payload.
        """
        if not self.armed("checkpoint_read"):
            return blob
        index = self._counts.get("checkpoint_read", 0)
        if not self.should_fire("checkpoint_read"):
            return blob
        if not blob:
            return b"\x00"
        if index % 2 == 0:
            return bytes([blob[0] ^ 0xFF]) + blob[1:]
        return blob[: max(len(blob) // 2, 1)]


def trip_worker_faults(plan: FaultPlan, index: int) -> None:
    """Run the worker-entry injection sites for worker ``index``.

    Stall first (so a stalled worker can still crash afterwards, the
    nastier ordering), then hard-kill, then crash.
    """
    if plan.armed("worker_stall") and plan.should_fire("worker_stall", index):
        time.sleep(plan.stall_s)
    if plan.armed("worker_kill") and plan.should_fire("worker_kill", index):
        if multiprocessing.parent_process() is not None:
            os._exit(13)  # child process: simulate a hard crash/OOM kill
        raise InjectedWorkerCrash(f"injected kill in worker {index}")
    if plan.armed("worker_crash") and plan.should_fire("worker_crash", index):
        raise InjectedWorkerCrash(f"injected crash in worker {index}")
