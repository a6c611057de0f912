"""External supervisor logic: agreement arbitration, fault counters,
spare management, and the system watchdog.

The supervisor is modeled as fault-immune (it lives off-chip). It stays
passive while tiles agree; on disagreement it arbitrates by finding the
largest mutually-agreeing clique among the reports and escalates through
state update, spare replacement, and permanent-defect classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .lockstep import AGREE, DISAGREE, MISS, CheckpointReport

# handle_fault action kinds
STATE_UPDATE = "state-update"
REPLACE = "replace"
DEFUNCT_STAGE2 = "defunct-stage2"
STAGE2_NO_SPARE = "stage2-no-spare"


@dataclass
class Verdict:
    faulty: list[str]
    clique: list[str]
    unresolvable: bool = False
    all_miss: bool = False      # every recorded verdict was a deadline miss

    @property
    def all_agree(self) -> bool:
        return not self.faulty and not self.unresolvable


def arbitrate(expected: list[str], reports: dict[str, CheckpointReport]) -> Verdict:
    """Build the agreement graph over the expected members and judge it.

    The faulty set is everything outside the largest mutually-agreeing
    clique. Tiles stop comparing at their first mismatch, so reports are
    partial: an edge holds when at least one side affirms agreement and
    neither side contradicts it. A tie between largest cliques is
    unresolvable: with partial, possibly lying reports there is no safe
    pick, so the whole group must be rebooted. A lone member is trivially
    a clique of one.
    """
    edges = set()
    for i, j in combinations(expected, 2):
        ri, rj = reports.get(i), reports.get(j)
        if ri is None or rj is None:
            continue
        vi, vj = ri.verdicts.get(j), rj.verdicts.get(i)
        if vi in (DISAGREE, MISS) or vj in (DISAGREE, MISS):
            continue
        if vi == AGREE or vj == AGREE:
            edges.add((i, j))

    def is_clique(subset):
        return all((a, b) in edges for a, b in combinations(subset, 2))

    best: list[tuple[str, ...]] = []
    for size in range(len(expected), 0, -1):
        for subset in combinations(expected, size):
            if is_clique(subset):
                best.append(subset)
        if best:
            break

    recorded = [v for r in reports.values() for v in r.verdicts.values()]
    all_miss = bool(recorded) and all(v == MISS for v in recorded)

    if len(best) != 1:
        return Verdict(faulty=[], clique=[], unresolvable=True, all_miss=all_miss)
    clique = list(best[0])
    faulty = [t for t in expected if t not in clique]
    return Verdict(faulty=faulty, clique=clique, all_miss=all_miss)


@dataclass
class FaultAction:
    kind: str
    tile_id: str
    spare: Optional[str] = None


class Supervisor:
    def __init__(
        self,
        transient_threshold: int = 3,
        defunct_threshold: int = 10,
        window_checkpoints: int = 100,
        watchdog_period: int = 0,
        spare_pool: Optional[list[str]] = None,
    ):
        if transient_threshold >= defunct_threshold:
            raise ValueError("transient_threshold must be below defunct_threshold")
        self.transient_threshold = transient_threshold
        self.defunct_threshold = defunct_threshold
        self.window_checkpoints = window_checkpoints
        self.watchdog_period = watchdog_period
        self.watchdog_last_kick = 0
        self.spare_pool: list[str] = list(spare_pool or [])
        self.fault_counter: dict[str, int] = {}
        self._window_times: dict[str, list[int]] = {}

    # -- fault accounting ---------------------------------------------------

    def handle_fault(self, tile_id: str, now: int, group_period: int) -> FaultAction:
        """Count one fault against a tile and pick the escalation level."""
        self.fault_counter[tile_id] = self.fault_counter.get(tile_id, 0) + 1
        lifetime = self.fault_counter[tile_id]

        window = self._window_times.setdefault(tile_id, [])
        window.append(now)
        horizon = now - self.window_checkpoints * group_period
        while window and window[0] < horizon:
            window.pop(0)
        windowed = len(window)

        if lifetime >= self.defunct_threshold:
            kind = DEFUNCT_STAGE2
            spare = self.take_spare()
        elif windowed >= self.transient_threshold:
            spare = self.take_spare()
            kind = REPLACE if spare else STAGE2_NO_SPARE
        else:
            kind, spare = STATE_UPDATE, None
        return FaultAction(kind=kind, tile_id=tile_id, spare=spare)

    def reset_counter(self, tile_id: str):
        """Explicit reset after a successful Stage 2 repair."""
        self.fault_counter[tile_id] = 0
        self._window_times[tile_id] = []

    # -- spare pool ---------------------------------------------------------

    def take_spare(self) -> Optional[str]:
        return self.spare_pool.pop(0) if self.spare_pool else None

    def return_spare(self, tile_id: str):
        if tile_id not in self.spare_pool:
            self.spare_pool.append(tile_id)

    # -- watchdog -----------------------------------------------------------

    def kick(self, now: int):
        self.watchdog_last_kick = now

    def watchdog_expired(self, now: int) -> bool:
        return now - self.watchdog_last_kick >= self.watchdog_period > 0
