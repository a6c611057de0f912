"""Host speed, sampled while the benchmark runs.

A small shared machine changes speed by up to a factor of two over seconds
to minutes, for every process on it, so raw host times of the same run
differ by that much between invocations. `HostSpeed` times a fixed
pure-Python reference kernel from a timer signal every PERIOD_S seconds.
The handler runs in the main thread between two bytecodes of whatever is
executing, so no thread is started, and the kernel's duration follows the
host's speed at that moment.

A run's host time excludes the time spent in the handler and is scaled by
NOMINAL_S over the mean kernel time sampled around the run, so it reads as
the host time the run would take at the nominal speed.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
from time import perf_counter

MASK64 = (1 << 64) - 1
PERIOD_S = 0.01
AROUND_S = 0.05
# The kernel's duration on a shared 2-vCPU x86-64 host with Python 3.11
# at its fast speed; it only sets the scale the normalised numbers read in.
NOMINAL_S = 0.0004


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def reference_kernel(n: int = 400) -> dict:
    """Fixed interpreter work like a simulator's: 64-bit integer mixing,
    a heap of small objects, attribute reads and dict updates."""
    heap: list = []
    counts: dict = {}
    x = 0x9E3779B97F4A7C15
    for i in range(n):
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        x = ((x << 17) | (x >> 47)) & MASK64
        heapq.heappush(heap, (x & 0xFFFF, i, _Item(i, x)))
        if len(heap) > 32:
            item = heapq.heappop(heap)[2]
            counts[item.key & 63] = counts.get(item.key & 63, 0) + 1
    return counts


class HostSpeed:
    """Context manager that samples the reference kernel on SIGALRM."""

    def __init__(self):
        self.at: list[float] = []      # start of each sample
        self.took: list[float] = []    # kernel duration of each sample
        self.paused = 0.0              # total time spent in the handler
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_kernel()
        took = perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.paused += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time sampled around [start, end]."""
        if not self.took:
            return 1.0
        lo = bisect.bisect_left(self.at, start - AROUND_S)
        hi = bisect.bisect_right(self.at, end + AROUND_S)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return NOMINAL_S / statistics.fmean(near)

    def nominal(self, start: float, end: float, raw: float) -> float:
        """Host seconds at the nominal speed for work measured over [start, end]."""
        return raw * self.scale(start, end)

    def ratio(self) -> float:
        """Median host speed relative to nominal over all samples."""
        return NOMINAL_S / statistics.median(self.took) if self.took else 1.0
