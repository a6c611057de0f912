"""Per-tile lifecycle state machine and group wiring.

A tile is the unit of replication: it hosts one replica of every thread in
its tile groups and moves through a fixed status machine driven by
checkpoints and supervisor commands. The validation memory a tile writes
and its siblings read belongs to one checkpoint round, so it lives on the
simulation's `GroupCheckpoint`.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .workload import ThreadSpec, ThreadState

# Tile statuses
BOOTING = "booting"
ACTIVE = "active"
IDLE_SPARE = "idle-spare"
UPDATING = "updating"
SUSPECT = "suspect"
REBOOTING = "rebooting"
DEFUNCT = "defunct"

# Allowed status transitions. Defunct is reachable from anywhere but only
# the supervisor takes that decision; rebooting out of Updating/Suspect
# covers watchdog resets and failed updates.
TRANSITIONS = {
    BOOTING: {ACTIVE, IDLE_SPARE, DEFUNCT},
    ACTIVE: {SUSPECT, REBOOTING, DEFUNCT},
    SUSPECT: {ACTIVE, UPDATING, REBOOTING, DEFUNCT},
    REBOOTING: {BOOTING},
    IDLE_SPARE: {UPDATING, REBOOTING, DEFUNCT},
    UPDATING: {ACTIVE, SUSPECT, REBOOTING, DEFUNCT},
    DEFUNCT: {REBOOTING},  # Stage 2 repair reboots a defunct tile
}


class InvalidTransition(RuntimeError):
    pass


@dataclass
class TileGroup:
    group_id: str
    members: list[str]
    thread_groups: list[str]
    checkpoint_index: int = -1   # first checkpoint (at boot) is index 0
    correction_enabled: bool = True
    period_factor: int = 1       # grows when the frequency degradation lever fires
    target_size: int = field(init=False)    # the member count at creation
    # set by `bind` whenever thread_groups changes
    threads: list[ThreadSpec] = field(default_factory=list)
    base_period: int = 0
    comparison_deadline: int = 0
    grace_period: int = 0
    delay: int = 0               # checksum deferral of each round
    output_threads: list[str] = field(default_factory=list)
    # (thread id, checkpoint period // base period, checksum time), in order
    schedule: list[tuple[str, int, int]] = field(default_factory=list)
    sync_time: int = 0           # a donor's state write of every thread

    def __post_init__(self):
        self.target_size = len(self.members)

    def bind(self, threads: list[ThreadSpec], context_switch: int):
        """Run `threads`, in the order given, and work out the group's timing
        from them. The base period is the shortest checkpoint period, the
        comparison deadline 10% of it (at least 1), the grace period twice
        the summed update cost, and the checksum deferral the longest
        viable delay. The output threads are the ids of the threads that
        emit output, in order. A thread's checksum and its state write each
        cost one context switch on top. A ValueError refuses threads whose
        first round, which checks them all, cannot finish by the deadline."""
        if not threads:
            raise ValueError(f"group {self.group_id}: no threads to run")
        self.threads = list(threads)
        self.base_period = min(s.checkpoint_period for s in threads)
        self.comparison_deadline = max(1, self.base_period // 10)
        self.grace_period = 2 * sum(s.update_cost for s in threads)
        self.delay = max(s.viable_delay for s in threads)
        self.output_threads = [s.thread_id for s in threads if s.emits_output]
        self.schedule = [(s.thread_id, max(1, s.checkpoint_period // self.base_period),
                          s.checksum_cost + context_switch) for s in threads]
        self.sync_time = sum(s.sync_cost + context_switch for s in threads)
        ready = self.plan(0)[1]
        if ready > self.comparison_deadline:
            raise ValueError(f"checkpoint cost {ready} exceeds "
                             f"comparison deadline {self.comparison_deadline}")

    @property
    def period(self) -> int:
        return self.base_period * self.period_factor

    def plan(self, index: int) -> tuple[list[str], int]:
        """The ids of the threads validated at checkpoint `index`, each
        every checkpoint period // base period checkpoints of this group,
        and the time from the round's start until their checksums are
        ready: the deferral plus each one's checksum time."""
        ids, ready = [], self.delay
        for tid, ratio, checksum_time in self.schedule:
            if index % ratio == 0:
                ids.append(tid)
                ready += checksum_time
        return ids, ready


@dataclass
class RunWindow:
    """Execution window of one thread group's replicas on one tile.

    Work cycles happen at absolute boundary crossings relative to the
    group-synchronized epoch, so interrupting an advance mid-window (to
    inject a fault) splits it without losing or double-counting cycles.
    `Simulation._advance_window` counts the crossings.
    """
    epoch: int = 0
    advanced_to: int = 0
    running: bool = False

    def resume(self, now: int):
        self.epoch = now
        self.advanced_to = now
        self.running = True


class Tile:
    def __init__(self, tile_id: str, partition: str):
        self.tile_id = tile_id
        self.partition = partition
        self.status = BOOTING
        # Lockstepping siblings expect a report from a member: a tile that
        # is Active, Suspect or Updating. `set_status` keeps this in step.
        self.is_member = False
        self.sefi: Optional[int] = None      # id of the SEFI fault blocking the interface
        self.persist_corrupt = False         # active fabric damage under this tile's footprint
        self.threads: dict[str, ThreadState] = {}
        self.windows: dict[str, RunWindow] = {}  # hosted thread-group id -> window

    @functools.cached_property
    def noise_seed(self) -> int:
        """Tile-specific salt for modeling damaged-logic corruption, hashed
        only if the tile's fabric is ever damaged."""
        return int.from_bytes(
            hashlib.blake2b(self.tile_id.encode(), digest_size=8).digest(), "little")

    def set_status(self, new: str):
        if new == self.status:
            return
        allowed = TRANSITIONS.get(self.status, set())
        if new not in allowed:
            raise InvalidTransition(f"{self.tile_id}: {self.status} -> {new}")
        self.status = new
        self.is_member = new in (ACTIVE, SUSPECT, UPDATING)
        if new in (DEFUNCT, IDLE_SPARE, REBOOTING):
            self.windows.clear()
