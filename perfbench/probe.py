"""The host probe: a fixed pure-Python load that measures the host's speed.

On the 2-vCPU hosts this benchmark was built on, the speed of the same
code changes by 1.4-2x for a minute or more at a time, with no steal
time in ``/proc/stat``, and every wall-clock figure of a run moves with
it.  The benchmark times this load next to its own work, in the same
process and within about a second of it, and reports its wall-clock
metrics in *reference seconds*: measured seconds x ``REFERENCE_MS`` /
the load's time.  The load is the benchmark's code, not the library's,
so a change to the library moves the reference seconds exactly as much
as it moves the measured ones.

The load has two parts, timed apart and added: an integer loop, which
waits on the interpreter alone, and random reads in a buffer larger than
a core's L2 cache, which wait on the shared cache and memory the way
the library's walks over its objects do.  Over 145 pairs of an SJ-SORT
and a B-KDJ op on a drifting host, the 20-second medians of op time
over probe time spread 11% with both parts and 24% with the integer
loop alone (24% unscaled).
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the integer loop.
LOOP = 100_000
#: Random reads, and the buffer they go to.
READS = 40_000
BUFFER_BYTES = 4 << 20
#: Timings of each part per probe; the fastest counts.
REPS = 3
#: The load's time on the reference host that reference seconds refer to,
#: about what it takes on a quiet 2-vCPU x86_64 host.
REFERENCE_MS = 12.0
#: A unit is scaled by the probes from this many before it to this many
#: after it (the ones right before and after included).
WINDOW = 3


class Probe:
    """The fixed load and its 4 MB buffer (written once, so it is resident)."""

    def __init__(self) -> None:
        self.buffer = bytearray(b"\x01") * BUFFER_BYTES

    def ms(self) -> float:
        """Milliseconds of the load: the fastest timing of each part, added."""
        return _fastest(_arithmetic, None) + _fastest(_reads, self.buffer)


def _arithmetic(_) -> None:
    acc = 0
    for i in range(LOOP):
        acc += i * i


def _reads(buffer: bytearray) -> None:
    mask = len(buffer) - 1
    j = 12345
    acc = 0
    for _ in range(READS):
        j = (j * 1103515245 + 12345) & mask
        acc += buffer[j]


def _fastest(part, arg) -> float:
    best = float("inf")
    for _ in range(REPS):
        started = time.perf_counter()
        part(arg)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def scale(samples: list[float]) -> float:
    """Reference seconds per measured second, from probes taken around a unit.

    A probe's time itself varies by 10-30% from one probe to the next,
    so a unit is scaled by the median of several probes around it.
    """
    return REFERENCE_MS / statistics.median(samples)
