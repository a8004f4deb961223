"""Simulated disk with a virtual clock.

The disk does not hold data itself (pages live in
:class:`repro.storage.pages.PageStore`); it models *time*.  Every consumer
— the R-tree buffer pool on a miss, the hybrid main queue when it spills
or swaps segments, the external sort when it reads and writes runs —
charges its transfers here, and the accumulated time is the "response
time" the benchmarks report alongside wall-clock time.

Random and sequential transfers use the separate bandwidths measured in
the paper (0.5 MB/s and 5 MB/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.cost import CostModel, DEFAULT_COST_MODEL


@dataclass(slots=True)
class DiskStats:
    """Raw transfer counters, split by access pattern and direction."""

    random_reads: int = 0
    random_writes: int = 0
    sequential_read_pages: int = 0
    sequential_write_pages: int = 0

    @property
    def total_random(self) -> int:
        return self.random_reads + self.random_writes

    @property
    def total_sequential_pages(self) -> int:
        return self.sequential_read_pages + self.sequential_write_pages


class SimulatedDisk:
    """Charges page transfers against a simulated clock.

    The disk owns two float accumulators: the clock (I/O plus modeled
    CPU) and the CPU share of it.  Every charge adds to them in call
    order, so a run's totals are bit-exact functions of its charge
    sequence; the plane sweep borrows both through
    :attr:`accumulators` and folds its per-anchor charges in place.

    Parameters
    ----------
    cost_model:
        Device parameters; defaults to the paper's measured disk.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.stats = DiskStats()
        self._clock = 0.0
        self._cpu_time = 0.0

    # ------------------------------------------------------------------
    # I/O charging
    # ------------------------------------------------------------------

    def random_read(self, pages: int = 1) -> None:
        """Charge ``pages`` random page reads (e.g. an R-tree node fetch)."""
        self.stats.random_reads += pages
        self._clock += self.cost_model.random_read_time(pages)

    def random_write(self, pages: int = 1) -> None:
        """Charge ``pages`` random page writes."""
        self.stats.random_writes += pages
        self._clock += self.cost_model.random_read_time(pages)

    def sequential_read(self, pages: int) -> None:
        """Charge a sequential read of ``pages`` pages (queue segments, runs)."""
        if pages <= 0:
            return
        self.stats.sequential_read_pages += pages
        self._clock += self.cost_model.sequential_io_time(pages)

    def sequential_write(self, pages: int) -> None:
        """Charge a sequential write of ``pages`` pages."""
        if pages <= 0:
            return
        self.stats.sequential_write_pages += pages
        self._clock += self.cost_model.sequential_io_time(pages)

    # ------------------------------------------------------------------
    # CPU charging
    # ------------------------------------------------------------------

    def charge_cpu(self, seconds: float) -> None:
        """Advance the clock by modeled CPU work."""
        self._cpu_time += seconds
        self._clock += seconds

    @property
    def accumulators(self) -> tuple[float, float]:
        """``(cpu_time, clock)``: the two float accumulators, handed out to
        a hot loop that folds its CPU charges itself.

        The loop adds each charge to both floats in order, exactly as one
        :meth:`charge_cpu` call per charge would, and assigns the pair
        back, so both totals keep their bits (adding a sum of the charges
        instead would round differently).  Between reading and assigning
        it back the disk must not be charged by anything else: assign it
        back before any call that may charge the disk, and read it again
        after.
        """
        return self._cpu_time, self._clock

    @accumulators.setter
    def accumulators(self, value: tuple[float, float]) -> None:
        self._cpu_time, self._clock = value

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Total simulated seconds elapsed (I/O plus modeled CPU)."""
        return self._clock

    @property
    def io_time(self) -> float:
        """Simulated seconds spent on I/O only."""
        return self._clock - self._cpu_time

    @property
    def cpu_time(self) -> float:
        """Simulated seconds of modeled CPU work."""
        return self._cpu_time

    def reset(self) -> None:
        """Zero the clock and counters (for reusing a disk across runs)."""
        self.stats = DiskStats()
        self._clock = 0.0
        self._cpu_time = 0.0
