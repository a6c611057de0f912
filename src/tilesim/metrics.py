"""Metrics derived purely from a run trace, so they can be recomputed
offline from the trace file alone.

The fault accounting identity ties every injected fault to exactly one
outcome: corrected + replaced + repaired + degraded + undetected +
absorbed == injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .trace import TraceRecord, encode_canonical

OUTCOMES = ("corrected", "replaced", "repaired", "degraded")

# The type of each payload field that compute_metrics counts with or keys by,
# by record kind; a bool is not an int. The items of `tiles` and of
# `tg_map`'s lists are checked where they are read.
FIELD_TYPES = {
    "run-start": (("horizon", int), ("tg_map", dict)),
    "fault": (("id", int), ("fault_kind", str), ("disposition", str)),
    "fault-detected": (("id", int), ("latency", int), ("group", str)),
    "fault-outcome": (("id", int), ("outcome", str)),
    "verdict": (("group", str),),
    "checkpoint-end": (("duration", int), ("tiles", list)),
    "output-vote": (("divergent", list), ("escaped", int)),
    "tg-active": (("tg", str), ("active", bool)),
}


@dataclass
class MetricsSummary:
    horizon: int = 0
    partial: bool = False
    loss_of_mission: bool = False
    injected: int = 0
    absorbed: int = 0
    undetected: int = 0
    corrected: int = 0
    replaced: int = 0
    repaired: int = 0
    degraded: int = 0
    detected: int = 0
    faults_by_kind: dict = field(default_factory=dict)
    detection_latency_mean: Optional[float] = None
    detection_latency_max: Optional[int] = None
    recovery_latency_mean: Optional[float] = None
    recovery_latency_max: Optional[int] = None
    overhead_by_tile: dict = field(default_factory=dict)
    availability: dict = field(default_factory=dict)   # thread id -> fraction
    checkpoints: int = 0
    propagation_window_count: int = 0
    outputs_escaped: int = 0
    no_majority_events: int = 0
    undetected_divergences: int = 0
    supervisor_commands: int = 0

    def identity_holds(self) -> bool:
        return (self.corrected + self.replaced + self.repaired + self.degraded
                + self.undetected + self.absorbed) == self.injected

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "partial": self.partial,
            "loss_of_mission": self.loss_of_mission,
            "faults": {
                "injected": self.injected,
                "absorbed": self.absorbed,
                "undetected": self.undetected,
                "corrected": self.corrected,
                "replaced": self.replaced,
                "repaired": self.repaired,
                "degraded": self.degraded,
                "detected": self.detected,
                "by_kind": self.faults_by_kind,
            },
            "latency": {
                "detection_mean": self.detection_latency_mean,
                "detection_max": self.detection_latency_max,
                "recovery_mean": self.recovery_latency_mean,
                "recovery_max": self.recovery_latency_max,
            },
            "overhead_by_tile": self.overhead_by_tile,
            "availability": self.availability,
            "checkpoints": self.checkpoints,
            "outputs": {
                "propagation_window_count": self.propagation_window_count,
                "escaped": self.outputs_escaped,
                "no_majority_events": self.no_majority_events,
            },
            "undetected_divergences": self.undetected_divergences,
            "supervisor_commands": self.supervisor_commands,
        }

    def to_json(self) -> str:
        return encode_canonical(self.to_dict()) + "\n"


def compute_metrics(records: Iterable[TraceRecord]) -> MetricsSummary:
    """Fold a trace, in the time order it was written, into its metrics. A
    record without a field that its kind needs, or with a field not of its
    FIELD_TYPES type, raises a ValueError naming the record's 1-based
    number, its kind and the field."""
    m = MetricsSummary()

    horizon = None
    tg_map: dict[str, list[str]] = {}
    fault_kind: dict[int, str] = {}
    disposition: dict[int, str] = {}
    outcome: dict[int, str] = {}
    detected: set[int] = set()
    detection_latencies: list[int] = []
    pending: dict[str, list[int]] = {}   # group -> detection times not yet recovered
    recoveries: list[int] = []
    busy: dict[str, int] = {}
    tg_events: dict[str, list[tuple[int, bool]]] = {}

    def wrong_type(name: str) -> ValueError:
        return ValueError(f"record {number} ({kind}): field {name!r} has the wrong type")

    try:
        for number, rec in enumerate(records, 1):
            kind = rec.kind
            p = rec.payload
            for name, type_ in FIELD_TYPES.get(kind, ()):
                if name in p and type(p[name]) is not type_:
                    raise wrong_type(name)
            if kind == "run-start":
                m.horizon = p.get("horizon", 0)
                tg_map = p.get("tg_map", {})
                if not all(type(ts) is list and all(type(t) is str for t in ts)
                           for ts in tg_map.values()):
                    raise wrong_type("tg_map")
            elif kind == "run-end":
                horizon = rec.at
                m.loss_of_mission = p.get("reason") == "loss-of-mission"
            elif kind == "fault":
                fid = p["id"]
                fault_kind[fid] = p["fault_kind"]
                disposition[fid] = p["disposition"]
            elif kind == "fault-detected":
                detected.add(p["id"])
                detection_latencies.append(p["latency"])
                pending.setdefault(p["group"], []).append(rec.at)
            elif kind == "fault-outcome":
                outcome[p["id"]] = p["outcome"]
            elif kind == "verdict":
                # recovery: from a fault's detection to its group's next
                # all-agree checkpoint at full strength
                group = p.get("group")
                if (group in pending and p.get("result") == "all-agree"
                        and p.get("participants") == p.get("target_size")):
                    waiting = pending.pop(group)
                    recoveries += [rec.at - at for at in waiting if at < rec.at]
                    later = [at for at in waiting if at >= rec.at]
                    if later:
                        pending[group] = later
            elif kind == "checkpoint-end":
                m.checkpoints += 1
                for tile in p.get("tiles", []):
                    if type(tile) is not str:
                        raise wrong_type("tiles")
                    busy[tile] = busy.get(tile, 0) + p["duration"]
            elif kind == "output-vote":
                m.propagation_window_count += len(p.get("divergent", []))
                m.outputs_escaped += p.get("escaped", 0)
                if p.get("no_majority"):
                    m.no_majority_events += 1
            elif kind == "oracle-divergence":
                m.undetected_divergences += 1
            elif kind in ("command", "command-lost", "command-rejected"):
                m.supervisor_commands += 1
            elif kind == "tg-active":
                tg_events.setdefault(p["tg"], []).append((rec.at, p["active"]))
    except KeyError as exc:
        raise ValueError(f"record {number} ({kind}) has no {exc.args[0]!r} field") from None

    m.partial = horizon is None
    if horizon is not None:
        m.horizon = horizon

    # fault accounting
    m.injected = len(fault_kind)
    for fid, kind in sorted(fault_kind.items()):
        final = outcome.get(fid)
        if disposition[fid] == "absorbed" or final == "absorbed":
            bucket = "absorbed"
        elif final in OUTCOMES:
            bucket = final
        else:
            bucket = "undetected"
        setattr(m, bucket, getattr(m, bucket) + 1)
        per = m.faults_by_kind.setdefault(kind, {})
        per[bucket] = per.get(bucket, 0) + 1
    m.detected = len(detected)

    if detection_latencies:
        m.detection_latency_mean = sum(detection_latencies) / len(detection_latencies)
        m.detection_latency_max = max(detection_latencies)

    if recoveries:
        m.recovery_latency_mean = sum(recoveries) / len(recoveries)
        m.recovery_latency_max = max(recoveries)

    if m.horizon:
        m.overhead_by_tile = {
            tile: busy[tile] / m.horizon for tile in sorted(busy)
        }

    # availability from activity transitions
    end = m.horizon
    for tg, events in tg_events.items():
        total = 0
        active_since = None
        for at, active in events:
            if active and active_since is None:
                active_since = at
            elif not active and active_since is not None:
                total += at - active_since
                active_since = None
        if active_since is not None:
            total += max(0, end - active_since)
        frac = total / end if end else 0.0
        for thread in tg_map.get(tg, [tg]):
            m.availability[thread] = frac

    return m
