"""Deterministic discrete-event kernel: virtual clock, ordered event queue,
seeded per-subsystem random streams.

Time is an integer count of simulated microseconds. Simultaneous events
dispatch in insertion order, which makes replays bit-exact.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Optional

MASK64 = (1 << 64) - 1


class PastTimeError(ValueError):
    """Raised when an event is scheduled before the current clock."""


@dataclass
class Event:
    fire_at: int
    seq: int
    kind: str
    payload: dict = field(default_factory=dict)
    cancelled: bool = False


class EventHandle:
    """Returned by schedule(); lets the caller cancel the event later."""

    __slots__ = ("_event",)

    def __init__(self, event: Event):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def fire_at(self) -> int:
        return self._event.fire_at


class EventQueue:
    """Min-heap of events ordered by (fire_at, insertion seq)."""

    def __init__(self):
        self.now = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0

    def schedule(self, fire_at: int, kind: str, payload: Optional[dict] = None) -> EventHandle:
        if fire_at < self.now:
            raise PastTimeError(f"cannot schedule {kind!r} at t={fire_at} (clock is {self.now})")
        ev = Event(fire_at=fire_at, seq=self._seq, kind=kind, payload=payload or {})
        self._seq += 1
        heapq.heappush(self._heap, (ev.fire_at, ev.seq, ev))
        return EventHandle(ev)

    def advance(self) -> Optional[Event]:
        """Pop the next live event and move the clock to it.

        Returns None at end of simulation (empty queue); the clock is left
        unchanged in that case. Cancelled events are skipped silently.
        """
        while self._heap:
            _, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self.now = ev.fire_at
            return ev
        return None

    def peek_time(self) -> Optional[int]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)


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
        self.label = label
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


class StreamPool:
    """Lazily builds one RandomStream per label from the run's master seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, RandomStream] = {}

    def get(self, label: str) -> RandomStream:
        if label not in self._streams:
            self._streams[label] = RandomStream(self.seed, label)
        return self._streams[label]
