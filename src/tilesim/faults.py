"""Radiation fault model: transient upsets, permanent cell damage, and
functional interrupts, generated from Poisson rates or explicit scripts,
and the ledger that carries each fault from arrival to its outcome.

Rates are events per simulated microsecond. Time-windowed multipliers allow
storm phases with elevated flux. Generation is fully deterministic given
(profile, seed): arrivals and target choices come from one dedicated
random stream.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from .engine import EventQueue, RandomStream
from .trace import Trace
from . import fabric as fab

TRANSIENT_STATE = "transient-state"
TRANSIENT_VMEM = "transient-validation-memory"
PERMANENT_CELL = "permanent-cell"
SEFI_TILE = "sefi-tile"
SEFI_SHARED = "sefi-shared"
MEMORY_WORD = "memory-word"

KINDS = (TRANSIENT_STATE, TRANSIENT_VMEM, PERMANENT_CELL, SEFI_TILE, SEFI_SHARED, MEMORY_WORD)


@dataclass
class FaultEvent:
    at: int
    kind: str
    fault_id: int = field(default=-1, metadata={"key": None})   # generate() sets it, not a file
    tile: Optional[str] = None
    thread: Optional[str] = None
    word: int = 0
    masks: tuple[int, ...] = (0,)
    partition: Optional[str] = None
    cell: int = 0
    flavor: str = fab.DD
    duration: int = 0

    def target_label(self) -> str:
        if self.kind in (TRANSIENT_STATE, TRANSIENT_VMEM, MEMORY_WORD):
            return f"{self.tile}/{self.thread}[{self.word}]"
        if self.kind == PERMANENT_CELL:
            return f"{self.partition}:{self.cell}"
        if self.kind == SEFI_TILE:
            return str(self.tile)
        return "shared"


# FaultLedger location kinds; a location is (kind, tile id or partition name)
TILE = "tile"
PARTITION = "partition"     # the shared region is partition fab.SHARED
PENDING = "pending"         # the state update a tile is waiting for


class FaultLedger:
    """Owner of every fault's lifecycle from arrival to outcome.

    An applied fault is open at one or more locations, in arrival order. Ids
    leave a location only through `move`, `settle` or `absorb`, so the only
    way for a fault to end a run without an outcome is to be still open.
    The ledger writes all three trace records of a fault: its `fault`
    arrival, `fault-detected` and `fault-outcome`.
    """

    def __init__(self, trace: Trace, queue: EventQueue):
        self.trace = trace
        self.queue = queue
        self.events: dict[int, FaultEvent] = {}
        self.detected_at: dict[int, int] = {}
        self.outcome: dict[int, str] = {}
        self.held: dict[tuple[str, str], list[int]] = {}

    def arrive(self, ev: FaultEvent, *locations: tuple[str, str], **detail):
        """Write `ev`'s `fault` record with `detail`. With `locations` the
        fault is applied and opens at each of them; with none it is
        absorbed, and `detail` holds the `reason`."""
        self.trace.emit(self.queue.now, "injector", "fault",
                        {"id": ev.fault_id, "fault_kind": ev.kind, "target": ev.target_label(),
                         "disposition": "applied" if locations else "absorbed", **detail})
        for loc in locations:
            self.held.setdefault(loc, []).append(ev.fault_id)

    def move(self, src: tuple[str, str], dst: tuple[str, str]):
        self.held.setdefault(dst, []).extend(self.held.pop(src, ()))

    def detect(self, location: tuple[str, str], tile: str, group: str, index: int):
        """Mark every fault open at `location` detected; they stay open."""
        for fid in self.held.get(location, ()):
            self._detect(fid, tile, group, index)

    def settle(self, location: tuple[str, str], outcome: str,
               detected_by: Optional[tuple[str, str, int]] = None):
        """Close every fault open at `location` with `outcome`, first marking
        each one detected by (tile, group, index) if that is given."""
        for fid in self.held.pop(location, ()):
            if detected_by is not None:
                self._detect(fid, *detected_by)
            self._settle(fid, outcome)

    def absorb(self, fault_id: int):
        """A fault that ended before anything observed it was absorbed."""
        if fault_id in self.detected_at:
            return
        for ids in self.held.values():
            if fault_id in ids:
                ids.remove(fault_id)
        self._settle(fault_id, "absorbed")

    def open_ids(self) -> set[int]:
        return {fid for ids in self.held.values() for fid in ids}

    def _detect(self, fault_id: int, tile: str, group: str, index: int):
        if fault_id in self.detected_at:
            return
        now = self.queue.now
        self.detected_at[fault_id] = now
        self.trace.emit(now, "supervisor", "fault-detected",
                        {"id": fault_id, "tile": tile, "group": group, "index": index,
                         "latency": now - self.events[fault_id].at})

    def _settle(self, fault_id: int, outcome: str):
        self.outcome[fault_id] = outcome
        self.trace.emit(self.queue.now, "supervisor", "fault-outcome",
                        {"id": fault_id, "outcome": outcome})


@dataclass
class RateWindow:
    start: int
    end: int
    factor: float = 1.0


@dataclass
class FaultProfile:
    rates: dict[str, float] = field(default_factory=dict)
    explicit: list[FaultEvent] = field(default_factory=list)
    windows: list[RateWindow] = field(default_factory=list)
    multi_word_prob: float = 0.0
    sefi_duration: int = 1000

    def __post_init__(self):
        for kind, rate in self.rates.items():
            if kind not in KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            if rate < 0:
                raise ValueError(f"rate for {kind} must be >= 0")


@dataclass
class TargetSpace:
    """Everything a generated fault may hit, fixed at generation time."""
    tiles: list[str]
    threads_on: dict[str, list[str]]          # tile -> thread ids
    state_words: dict[str, int]               # thread id -> word count
    partitions: list[str]                     # includes the shared region


def _segments(horizon: int, windows: list[RateWindow]) -> list[tuple[int, int, float]]:
    cuts = {0, horizon}
    for w in windows:
        cuts.add(max(0, min(horizon, w.start)))
        cuts.add(max(0, min(horizon, w.end)))
    points = sorted(cuts)
    segs = []
    for a, b in zip(points, points[1:]):
        factor = 1.0
        for w in windows:
            if w.start <= a and b <= w.end:
                factor = w.factor
        segs.append((a, b, factor))
    return segs


def _nonzero_mask(stream: RandomStream) -> int:
    while True:
        m = stream.uniform64()
        if m:
            return m


def _pick_target(event: FaultEvent, space: TargetSpace, stream: RandomStream):
    if event.kind in (TRANSIENT_STATE, TRANSIENT_VMEM, MEMORY_WORD):
        tile = stream.choice(space.tiles)
        threads = space.threads_on.get(tile) or []
        if not threads:
            # spare tiles host no running threads; keep the draw but let
            # apply() absorb it
            event.tile = tile
            return
        thread = stream.choice(threads)
        event.tile = tile
        event.thread = thread
        event.word = stream.uniform_range(0, space.state_words[thread] - 1)
        event.masks = (_nonzero_mask(stream),)
    elif event.kind == PERMANENT_CELL:
        part = stream.choice(space.partitions)
        event.partition = part
        event.cell = stream.uniform_range(0, fab.CELLS - 1)
    elif event.kind == SEFI_TILE:
        event.tile = stream.choice(space.tiles)


def generate(
    profile: FaultProfile,
    horizon: int,
    stream: RandomStream,
    space: Optional[TargetSpace],
) -> list[FaultEvent]:
    """Merge explicit script events with Poisson arrivals per fault kind.

    `space` may be None when no kind has a positive rate: only generated
    faults pick a target."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    events: list[FaultEvent] = []
    for kind in KINDS:
        rate = profile.rates.get(kind, 0.0)
        if rate <= 0:
            continue
        for seg_start, seg_end, factor in _segments(horizon, profile.windows):
            eff = rate * factor
            if eff <= 0:
                continue
            t = float(seg_start)
            while True:
                t += stream.exponential(eff)
                at = int(t)
                if at >= seg_end:
                    break
                ev = FaultEvent(at=at, kind=kind, duration=profile.sefi_duration)
                _pick_target(ev, space, stream)
                if ev.kind == TRANSIENT_STATE and profile.multi_word_prob > 0:
                    roll = (stream.uniform64() >> 11) * 2.0**-53
                    if roll < profile.multi_word_prob and ev.thread is not None:
                        ev.masks = (ev.masks[0], _nonzero_mask(stream))
                events.append(ev)
    # copies: the run numbers its faults, the scenario keeps its own
    events.extend(copy.copy(e) for e in profile.explicit)
    events.sort(key=lambda e: e.at)
    for i, ev in enumerate(events):
        ev.fault_id = i
    return events
