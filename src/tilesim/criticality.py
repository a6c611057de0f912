"""Mixed-criticality reallocation: when spares and fabric repair are
exhausted, redistribute thread groups over the surviving tiles, degrading
low-criticality work first.

Placement is greedy in descending criticality (ties by label) with a
preference for tiles that already host the group, then best-fit by
remaining capacity. Capacity is linear-additive: a thread's utilization is
its work rate plus its checkpoint cost amortized over the period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Optional

from .workload import ThreadSpec

REDUCE_REPLICAS = "reduce-replicas"
REDUCE_FREQUENCY = "reduce-checkpoint-frequency"
DEACTIVATE = "deactivate"

# A frequency step of Stage 3's degradation ladder multiplies a group's
# checkpoint period by FREQUENCY_FACTOR, and the period never grows past
# MAX_PERIOD_FACTOR times its desired value.
FREQUENCY_FACTOR = 2
MAX_PERIOD_FACTOR = 8

MODE_FULL = "full"
MODE_DETECT_ONLY = "detect-only"
MODE_DEACTIVATED = "deactivated"


@dataclass(frozen=True)
class CriticalityPolicy:
    min_replicas_high: int = 3
    min_replicas_low: int = 2
    high_threshold: int = 5

    def __post_init__(self):
        if not (self.min_replicas_high >= self.min_replicas_low >= 1):
            raise ValueError("need min_replicas_high >= min_replicas_low >= 1")

    def class_min(self, criticality: int) -> int:
        if criticality >= self.high_threshold:
            return self.min_replicas_high
        return self.min_replicas_low


@dataclass(frozen=True)
class AllocRequest:
    tg_id: str
    criticality: int
    threads: tuple[ThreadSpec, ...]
    period: int                      # desired base period of the hosting group
    current_tiles: tuple[str, ...]   # healthy members currently hosting it
    period_factor: int = 1


@dataclass
class PlanEntry:
    tg_id: str
    tiles: tuple[str, ...]
    period_factor: int
    mode: str
    levers: tuple[str, ...] = ()
    loss_of_capability: bool = False

    @property
    def active(self) -> bool:
        return self.mode != MODE_DEACTIVATED


def utilization(spec: ThreadSpec, period: int, context_switch: int) -> Fraction:
    return Fraction(spec.work_per_tick) + Fraction(
        spec.checksum_cost + context_switch, period
    )


def group_utilization(req: AllocRequest, factor: int, context_switch: int) -> Fraction:
    period = req.period * factor
    return sum(
        (utilization(t, period, context_switch) for t in req.threads),
        start=Fraction(0),
    )


def reallocate(
    tiles: dict[str, Fraction],
    requests: Collection[AllocRequest],
    policy: CriticalityPolicy,
    context_switch: int = 2,
) -> dict[str, PlanEntry]:
    """Plan Stage 3 on the surviving tiles: thread group id -> its entry.

    Thread groups are placed from most to least critical. Each keeps as
    many replicas as it has healthy hosts (never below its class minimum),
    and placement prefers retained hosts, then tiles that can take the
    group without displacing anything still unplaced. When a group cannot
    be placed, it degrades one step at a time until it fits: one replica
    fewer, down to the low class minimum; then a checkpoint period
    FREQUENCY_FACTOR times longer, up to MAX_PERIOD_FACTOR times the
    desired one; then deactivation.
    """
    order = sorted(requests, key=lambda r: (-r.criticality, r.tg_id))
    load: dict[str, Fraction] = {t: Fraction(0) for t in tiles}
    tile_order = list(tiles)
    plan: dict[str, PlanEntry] = {}

    # Capacity currently pinned by groups not yet (re)placed: a soft signal
    # so the greedy disturbs existing placements only when it has to.
    unplaced: dict[str, Fraction] = {t: Fraction(0) for t in tiles}
    for req in requests:
        util = group_utilization(req, req.period_factor, context_switch)
        for t in req.current_tiles:
            if t in unplaced:
                unplaced[t] += util

    for req in order:
        own_util = group_utilization(req, req.period_factor, context_switch)
        for t in req.current_tiles:
            if t in unplaced:
                unplaced[t] -= own_util

        class_min = policy.class_min(req.criticality)
        replicas = max(class_min, len(req.current_tiles)) if req.current_tiles else class_min
        factor = req.period_factor
        levers_used: list[str] = []

        placed: Optional[list[str]] = None
        while True:
            util = group_utilization(req, factor, context_switch)
            candidates = sorted(   # stable, so ties stay in tile order
                (t for t in tile_order if load[t] + util <= tiles[t]),
                key=lambda t: (
                    t not in req.current_tiles,                      # retain hosts
                    load[t] + unplaced[t] + util > tiles[t],         # avoid displacing
                    tiles[t] - load[t] - unplaced[t],                # best fit
                ),
            )
            if len(candidates) >= replicas:
                placed = candidates[:replicas]
                break
            if replicas > policy.min_replicas_low:
                levers_used.append(REDUCE_REPLICAS)
                replicas -= 1
            elif factor * FREQUENCY_FACTOR <= MAX_PERIOD_FACTOR:
                levers_used.append(REDUCE_FREQUENCY)
                factor *= FREQUENCY_FACTOR
            else:
                levers_used.append(DEACTIVATE)
                break

        if not placed:
            high = req.criticality >= policy.high_threshold
            plan[req.tg_id] = PlanEntry(
                tg_id=req.tg_id, tiles=(), period_factor=factor,
                mode=MODE_DEACTIVATED, levers=tuple(levers_used),
                loss_of_capability=high,
            )
            continue

        placed_sorted = sorted(placed, key=tile_order.index)
        for t in placed_sorted:
            load[t] += util
        mode = MODE_FULL if len(placed_sorted) >= 3 else MODE_DETECT_ONLY
        plan[req.tg_id] = PlanEntry(
            tg_id=req.tg_id, tiles=tuple(placed_sorted), period_factor=factor,
            mode=mode, levers=tuple(levers_used),
        )
    return plan

