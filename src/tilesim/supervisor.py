"""External supervisor logic: agreement arbitration, fault counters, and
spare management.

The supervisor is modeled as fault-immune (it lives off-chip). It stays
passive while tiles agree; on disagreement it arbitrates by finding the
largest mutually-agreeing clique among the reports and escalates through
state update, spare replacement, and permanent-defect classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lockstep import AGREE, DISAGREE, MISS

# handle_fault action kinds
STATE_UPDATE = "state-update"
REPLACE = "replace"
DEFUNCT_STAGE2 = "defunct-stage2"
STAGE2_NO_SPARE = "stage2-no-spare"

# the transient threshold counts a tile's faults within this many of its
# group's checkpoint periods
WINDOW_CHECKPOINTS = 100


@dataclass
class Verdict:
    faulty: list[str]
    clique: list[str]
    unresolvable: bool = False
    all_miss: bool = False      # every recorded verdict was a deadline miss

    @property
    def all_agree(self) -> bool:
        return not self.faulty and not self.unresolvable


def arbitrate(expected: list[str], reports: dict[str, dict[str, str]]) -> Verdict:
    """Build the agreement graph over the expected members and judge it.
    `reports` holds each reporting tile's verdicts.

    The faulty set is everything outside the largest mutually-agreeing
    clique. Tiles stop comparing at their first mismatch, so reports are
    partial: an edge holds when at least one side affirms agreement and
    neither side contradicts it. A tie between largest cliques is
    unresolvable: with partial, possibly lying reports there is no safe
    pick, so the whole group must be rebooted. A lone member is trivially
    a clique of one.

    The largest cliques are found by a Bron-Kerbosch search with Tomita
    pivoting over bit masks (bit i stands for expected[i]). Every largest
    clique is maximal, so the verdict is the one that trying every subset,
    largest first, would give.
    """
    n = len(expected)
    adj = [0] * n
    seen = []  # (index, tile, verdicts) of the members with a report so far
    for j, b in enumerate(expected):
        vb = reports.get(b)
        if vb is None:
            continue
        for i, a, va in seen:
            vi, vj = va.get(b), vb.get(a)
            if vi in (DISAGREE, MISS) or vj in (DISAGREE, MISS):
                continue
            if vi == AGREE or vj == AGREE:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        seen.append((j, b, vb))

    best = [1]  # a clique has one member or more; an empty group finds none
    _expand(adj, 0, (1 << n) - 1, 0, best)

    # an edge needs an AGREE, so only an edgeless graph can be all misses
    all_miss = False
    if not any(adj):
        recorded = [v for r in reports.values() for v in r.values()]
        all_miss = bool(recorded) and all(v == MISS for v in recorded)

    if len(best) != 2:
        return Verdict(faulty=[], clique=[], unresolvable=True, all_miss=all_miss)
    clique, faulty = [], []
    for i, t in enumerate(expected):
        (clique if best[1] >> i & 1 else faulty).append(t)
    return Verdict(faulty=faulty, clique=clique, all_miss=all_miss)


def _expand(adj: list[int], clique: int, cand: int, excl: int, best: list[int]):
    """One Bron-Kerbosch step: extend `clique` by vertices of `cand`; `excl`
    holds the vertices whose extensions are already done.

    `best` is the size of the largest clique found so far, followed by the
    cliques of that size. The search stops growing it at two of them: only
    a strictly larger clique can still change the verdict.
    """
    ncand = cand.bit_count()
    reach = (clique | cand).bit_count()
    if reach < best[0] or (reach == best[0] and len(best) > 2):
        return
    pivot, pivot_deg, closed = 0, -1, True
    rest = cand | excl
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        deg = (cand & adj[v]).bit_count()
        if low & excl:
            if deg == ncand:
                return  # v extends every clique here: none is maximal
        elif deg != ncand - 1:
            closed = False
        if deg > pivot_deg:
            pivot, pivot_deg = v, deg
    if closed:
        # cand is itself a clique, so clique | cand is the one maximal
        # clique in this branch
        if reach > best[0]:
            best[:] = [reach, clique | cand]
        else:
            best.append(clique | cand)
        return
    branch = cand & ~adj[pivot]
    while branch:
        low = branch & -branch
        branch ^= low
        v = low.bit_length() - 1
        _expand(adj, clique | low, cand & adj[v], excl & adj[v], best)
        cand ^= low
        excl |= low


@dataclass
class FaultAction:
    kind: str
    spare: Optional[str] = None


class Supervisor:
    def __init__(
        self,
        transient_threshold: int = 3,
        defunct_threshold: int = 10,
        spare_pool: Optional[list[str]] = None,
    ):
        if transient_threshold >= defunct_threshold:
            raise ValueError("transient_threshold must be below defunct_threshold")
        self.transient_threshold = transient_threshold
        self.defunct_threshold = defunct_threshold
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
        horizon = now - WINDOW_CHECKPOINTS * group_period
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
        return FaultAction(kind=kind, spare=spare)

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
