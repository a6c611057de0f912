"""Deterministic discrete-event kernel: virtual clock, ordered event queue,
seeded per-subsystem random streams.

Time is an integer count of simulated microseconds. An event is a plain
heap entry ``[fire_at, seq, handler, args]``: the queue calls nothing, it
only orders entries by time and then by ``seq``, the insertion count, so
simultaneous events dispatch in insertion order and replays are bit-exact.
The caller that pops an entry runs its handler. Cancelling an entry blanks
its handler, and the queue drops it when it reaches the top of the heap.
A queue may hold a horizon, `until`: it never hands out an entry later
than that, so a run loop pops with one call per event.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Any, Callable, Optional

MASK64 = (1 << 64) - 1


class PastTimeError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class EventQueue:
    """Min-heap of entries ``[fire_at, seq, handler, args]``."""

    def __init__(self, until: Optional[int] = None):
        self.now = 0
        self.until = math.inf if until is None else until
        self._heap: list[list] = []
        self._seq = 0

    def schedule(self, fire_at: int, handler: Callable, *args) -> list:
        """Queue ``handler`` and its ``args`` to fire at ``fire_at``.

        Returns the heap entry, which is what `cancel` takes."""
        if fire_at < self.now:
            raise PastTimeError(f"cannot schedule {handler.__qualname__} at t={fire_at} "
                                f"(clock is {self.now})")
        entry = [fire_at, self._seq, handler, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Optional[list]) -> None:
        """Make a scheduled entry a no-op; `None` is ignored."""
        if entry is not None:
            entry[2] = None

    def advance(self) -> Optional[list]:
        """Pop the next live entry and move the clock to it.

        Returns None when no live entry is left, or when the next one fires
        after `until`; that entry stays queued, and the clock is left
        unchanged in both cases. Cancelled entries are skipped silently.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[2] is not None:
                if entry[0] > self.until:
                    # put back as it was: the same key takes the same place
                    heapq.heappush(heap, entry)
                    return None
                self.now = entry[0]
                return entry
        return None


def mix64(z: int) -> int:
    """splitmix64 finalizer: a cheap full-avalanche 64-bit bijection."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Counter-based 64-bit generator, split from a global seed by label.

    Streams with different labels never interact: each draw advances only
    this stream's counter, so adding draws on one stream cannot perturb
    another. Identical (seed, label) pairs reproduce identical sequences.
    """

    GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int, label: str):
        digest = hashlib.blake2b(
            f"{seed}:{label}".encode(), digest_size=8
        ).digest()
        self._state = int.from_bytes(digest, "little")

    def uniform64(self) -> int:
        self._state = (self._state + self.GOLDEN) & MASK64
        return mix64(self._state)

    def uniform_range(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.uniform64() % span

    def exponential(self, rate: float) -> float:
        """Inter-arrival time (in ticks) for a Poisson process of the given rate."""
        if rate <= 0:
            raise ValueError(f"exponential rate must be > 0, got {rate}")
        u = (self.uniform64() >> 11) * 2.0**-53  # in [0, 1)
        return -math.log1p(-u) / rate

    def choice(self, items: list) -> Any:
        if not items:
            raise ValueError("choice from empty list")
        return items[self.uniform64() % len(items)]
