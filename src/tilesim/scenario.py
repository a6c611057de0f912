"""Scenario files: the full configuration space of a run.

A scenario is a JSON document (conventionally ``*.scenario``) naming the
tiles, fabric geometry, threads, group assignments, thresholds, fault
profile, seed, and horizon. Loading validates everything up front and
reports every problem at once, with a JSON path for each.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Optional

from . import faults
from .criticality import CriticalityPolicy
from .workload import ThreadSpec

BUNDLED = ("fig3", "fig6", "exhaustion", "storm")


class ScenarioError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass
class TileConfig:
    tile_id: str
    capacity: float = 1_000_000.0
    spare: bool = False
    partition: str = ""


@dataclass
class TileGroupConfig:
    group_id: str
    members: list[str]
    thread_groups: list[str]
    comparison_deadline: int = 0   # 0 = default (10% of base period)
    grace_period: int = 0          # 0 = default (2x summed update cost)


@dataclass
class ThreadGroupConfig:
    tg_id: str
    threads: list[str]


@dataclass
class FabricConfig:
    cells_per_partition: int = 64
    shared_cells: int = 64
    anchor_cells: tuple[int, ...] = (0,)
    extra_partitions: int = 0
    variants: Optional[list[list[int]]] = None
    shared_variants: Optional[list[list[int]]] = None


@dataclass
class CostConfig:
    context_switch: int = 2
    boot_time: int = 500
    reconfig_duration: int = 1000
    full_reconfig_duration: int = 5000


@dataclass
class SupervisorConfig:
    transient_threshold: int = 3
    defunct_threshold: int = 10
    window_checkpoints: int = 100
    watchdog_period: int = 0       # 0 = default (4x largest group period)


@dataclass
class FeatureConfig:
    output_voting: bool = False
    ecc: bool = True
    signal_loss_prob: float = 0.0   # chance each agreement signal is dropped


@dataclass
class Scenario:
    name: str
    seed: int
    horizon: int
    tiles: list[TileConfig]
    threads: dict[str, ThreadSpec]
    thread_groups: list[ThreadGroupConfig]
    tile_groups: list[TileGroupConfig]
    fabric: FabricConfig = field(default_factory=FabricConfig)
    costs: CostConfig = field(default_factory=CostConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    policy: CriticalityPolicy = field(default_factory=CriticalityPolicy)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    profile: faults.FaultProfile = field(default_factory=faults.FaultProfile)
    raw: dict = field(default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def base_period(self, group: TileGroupConfig) -> int:
        periods = [
            self.threads[tid].checkpoint_period
            for tgc in self.thread_groups if tgc.tg_id in group.thread_groups
            for tid in tgc.threads
        ]
        return min(periods)

    def group_threads(self, group: TileGroupConfig) -> list[str]:
        return [
            tid
            for tgc in self.thread_groups if tgc.tg_id in group.thread_groups
            for tid in tgc.threads
        ]

    def comparison_deadline(self, group: TileGroupConfig) -> int:
        if group.comparison_deadline:
            return group.comparison_deadline
        return max(1, self.base_period(group) // 10)

    def grace_period(self, group: TileGroupConfig) -> int:
        if group.grace_period:
            return group.grace_period
        return 2 * sum(self.threads[t].update_cost for t in self.group_threads(group))

    def watchdog_period(self) -> int:
        if self.supervisor.watchdog_period:
            return self.supervisor.watchdog_period
        return 4 * max(self.base_period(g) for g in self.tile_groups)


_KEY_RE = re.compile(r"([^.\[\]]+)|\[(\*|\d+)\]")


def apply_override(doc: Any, assignment: str):
    """Apply one ``path=value`` override onto the raw scenario document.

    Paths use dots and indices (``threads[0].checkpoint_period``); ``[*]``
    fans out over a whole list. Values are parsed as JSON with a fallback
    to a bare string.
    """
    if "=" not in assignment:
        raise ScenarioError([f"override {assignment!r} is not of the form path=value"])
    path, _, raw_value = assignment.partition("=")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value

    tokens = [m.group(1) or m.group(2) for m in _KEY_RE.finditer(path.strip())]
    if not tokens:
        raise ScenarioError([f"override {assignment!r} has an empty path"])

    def assign(node, toks):
        tok, rest = toks[0], toks[1:]
        if tok == "*":
            if not isinstance(node, list):
                raise ScenarioError([f"override {path}: [*] on non-list"])
            if not rest:
                raise ScenarioError([f"override {path}: [*] cannot be terminal"])
            for item in node:
                assign(item, rest)
            return
        key: Any = int(tok) if tok.isdigit() and isinstance(node, list) else tok
        if not rest:
            node[key] = value
            return
        try:
            child = node[key]
        except KeyError:
            # defaulted sections may be absent; typos are still caught by
            # the unknown-key validation afterwards
            child = node[key] = {}
        except (IndexError, TypeError):
            raise ScenarioError([f"override {path}: {tok!r} not found"])
        assign(child, rest)

    assign(doc, tokens)


def _check_unknown(problems, path, doc, allowed):
    for key in doc:
        if key not in allowed:
            problems.append(f"{path}.{key}: unknown key")


def _duration(problems, path, doc, key, default):
    """``doc[key]`` as a non-negative integer; a problem naming the field
    and the default otherwise, since a negative delay schedules into the
    past."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        problems.append(f"{path}.{key}: must be a non-negative integer")
        return default
    return value


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    problems: list[str] = []
    _check_unknown(problems, name, doc, {
        "name", "seed", "horizon", "features", "costs", "supervisor", "policy",
        "fabric", "tiles", "threads", "thread_groups", "tile_groups", "faults",
    })

    seed = doc.get("seed", 0)
    horizon = doc.get("horizon", 0)
    if not isinstance(seed, int) or seed < 0:
        problems.append("seed: must be a non-negative integer")
    if not isinstance(horizon, int) or horizon <= 0:
        problems.append("horizon: must be a positive integer")

    tiles: list[TileConfig] = []
    tile_ids: set[str] = set()
    for i, t in enumerate(doc.get("tiles", [])):
        path = f"tiles[{i}]"
        _check_unknown(problems, path, t, {"id", "capacity", "spare", "partition"})
        tid = t.get("id", f"tile{i}")
        if tid in tile_ids:
            problems.append(f"{path}: duplicate tile id {tid!r}")
        tile_ids.add(tid)
        tiles.append(TileConfig(
            tile_id=tid,
            capacity=t.get("capacity", 1_000_000.0),
            spare=bool(t.get("spare", False)),
            partition=t.get("partition", f"p{i}"),
        ))
    if not tiles:
        problems.append("tiles: at least one tile required")
    partitions = [t.partition for t in tiles]
    if len(set(partitions)) != len(partitions):
        problems.append("tiles: partitions must be distinct")

    threads: dict[str, ThreadSpec] = {}
    for i, th in enumerate(doc.get("threads", [])):
        path = f"threads[{i}]"
        _check_unknown(problems, path, th, {
            "id", "criticality", "checkpoint_period", "state_words", "work_per_tick",
            "emits_output", "viable_delay", "checksum_cost", "sync_cost", "update_cost",
        })
        tid = th.get("id", f"thread{i}")
        if tid in threads:
            problems.append(f"{path}: duplicate thread id {tid!r}")
            continue
        try:
            threads[tid] = ThreadSpec(
                thread_id=tid,
                criticality=int(th.get("criticality", 0)),
                checkpoint_period=int(th.get("checkpoint_period", 0)),
                state_words=int(th.get("state_words", 4)),
                work_per_tick=int(th.get("work_per_tick", 1)),
                emits_output=bool(th.get("emits_output", False)),
                viable_delay=int(th.get("viable_delay", 0)),
                checksum_cost=int(th.get("checksum_cost", 10)),
                sync_cost=int(th.get("sync_cost", 10)),
                update_cost=int(th.get("update_cost", 10)),
            )
        except ValueError as exc:
            problems.append(f"{path}: {exc}")

    thread_groups: list[ThreadGroupConfig] = []
    tg_ids: set[str] = set()
    for i, tg in enumerate(doc.get("thread_groups", [])):
        path = f"thread_groups[{i}]"
        _check_unknown(problems, path, tg, {"id", "threads"})
        tgid = tg.get("id", f"TG{i}")
        if tgid in tg_ids:
            problems.append(f"{path}: duplicate thread group id {tgid!r}")
        tg_ids.add(tgid)
        members = list(tg.get("threads", []))
        if not members:
            problems.append(f"{path}: thread group is empty")
        for tid in members:
            if tid not in threads:
                problems.append(f"{path}: unknown thread {tid!r}")
        thread_groups.append(ThreadGroupConfig(tg_id=tgid, threads=members))

    tile_groups: list[TileGroupConfig] = []
    group_ids: set[str] = set()
    assigned_tgs: set[str] = set()
    for i, g in enumerate(doc.get("tile_groups", [])):
        path = f"tile_groups[{i}]"
        _check_unknown(problems, path, g, {
            "id", "members", "thread_groups", "comparison_deadline", "grace_period",
        })
        gid = g.get("id", f"G{i}")
        if gid in group_ids:
            problems.append(f"{path}: duplicate tile group id {gid!r}")
        group_ids.add(gid)
        members = list(g.get("members", []))
        if len(members) < 2:
            problems.append(f"{path}: tile groups need at least 2 members")
        if len(set(members)) != len(members):
            problems.append(f"{path}: duplicate members")
        for m in members:
            if m not in tile_ids:
                problems.append(f"{path}: unknown tile {m!r}")
        tgs = list(g.get("thread_groups", []))
        if not tgs:
            problems.append(f"{path}: no thread groups assigned")
        for tgid in tgs:
            if tgid not in tg_ids:
                problems.append(f"{path}: unknown thread group {tgid!r}")
            elif tgid in assigned_tgs:
                problems.append(f"{path}: thread group {tgid!r} assigned twice")
            assigned_tgs.add(tgid)
        tile_groups.append(TileGroupConfig(
            group_id=gid, members=members, thread_groups=tgs,
            comparison_deadline=int(g.get("comparison_deadline", 0)),
            grace_period=int(g.get("grace_period", 0)),
        ))
    if not tile_groups:
        problems.append("tile_groups: at least one tile group required")

    spare_ids = {t.tile_id for t in tiles if t.spare}
    for g in tile_groups:
        for m in g.members:
            if m in spare_ids:
                problems.append(f"tile_groups[{g.group_id}]: spare tile {m!r} cannot be a member")

    fab_doc = doc.get("fabric", {})
    _check_unknown(problems, "fabric", fab_doc, {
        "cells_per_partition", "shared_cells", "anchor_cells", "extra_partitions",
        "variants", "shared_variants",
    })
    fabric_cfg = FabricConfig(
        cells_per_partition=int(fab_doc.get("cells_per_partition", 64)),
        shared_cells=int(fab_doc.get("shared_cells", 64)),
        anchor_cells=tuple(fab_doc.get("anchor_cells", [0])),
        extra_partitions=int(fab_doc.get("extra_partitions", 0)),
        variants=fab_doc.get("variants"),
        shared_variants=fab_doc.get("shared_variants"),
    )
    for label, var_list in (("variants", fabric_cfg.variants),
                            ("shared_variants", fabric_cfg.shared_variants)):
        cells = fabric_cfg.cells_per_partition if label == "variants" else fabric_cfg.shared_cells
        if var_list is not None:
            if not var_list:
                problems.append(f"fabric.{label}: must not be empty")
            for vi, fp in enumerate(var_list):
                if any(not (0 <= c < cells) for c in fp):
                    problems.append(f"fabric.{label}[{vi}]: cell index out of range")

    cost_doc = doc.get("costs", {})
    _check_unknown(problems, "costs", cost_doc, {
        "context_switch", "boot_time", "reconfig_duration", "full_reconfig_duration",
    })
    costs = CostConfig(
        context_switch=_duration(problems, "costs", cost_doc, "context_switch", 2),
        boot_time=_duration(problems, "costs", cost_doc, "boot_time", 500),
        reconfig_duration=_duration(problems, "costs", cost_doc, "reconfig_duration", 1000),
        full_reconfig_duration=_duration(problems, "costs", cost_doc,
                                         "full_reconfig_duration", 5000),
    )

    sup_doc = doc.get("supervisor", {})
    _check_unknown(problems, "supervisor", sup_doc, {
        "transient_threshold", "defunct_threshold", "window_checkpoints", "watchdog_period",
    })
    sup = SupervisorConfig(
        transient_threshold=int(sup_doc.get("transient_threshold", 3)),
        defunct_threshold=int(sup_doc.get("defunct_threshold", 10)),
        window_checkpoints=int(sup_doc.get("window_checkpoints", 100)),
        watchdog_period=_duration(problems, "supervisor", sup_doc, "watchdog_period", 0),
    )
    if sup.transient_threshold >= sup.defunct_threshold:
        problems.append("supervisor: transient_threshold must be below defunct_threshold")

    pol_doc = doc.get("policy", {})
    _check_unknown(problems, "policy", pol_doc, {
        "min_replicas_high", "min_replicas_low", "high_threshold",
        "degradation_order", "frequency_factor", "max_period_factor",
    })
    try:
        policy = CriticalityPolicy(
            min_replicas_high=int(pol_doc.get("min_replicas_high", 3)),
            min_replicas_low=int(pol_doc.get("min_replicas_low", 2)),
            high_threshold=int(pol_doc.get("high_threshold", 5)),
            degradation_order=tuple(pol_doc.get(
                "degradation_order",
                ["reduce-replicas", "reduce-checkpoint-frequency", "deactivate"],
            )),
            frequency_factor=int(pol_doc.get("frequency_factor", 2)),
            max_period_factor=int(pol_doc.get("max_period_factor", 8)),
        )
    except ValueError as exc:
        problems.append(f"policy: {exc}")
        policy = CriticalityPolicy()

    feat_doc = doc.get("features", {})
    _check_unknown(problems, "features", feat_doc,
                   {"output_voting", "ecc", "signal_loss_prob"})
    features = FeatureConfig(
        output_voting=bool(feat_doc.get("output_voting", False)),
        ecc=bool(feat_doc.get("ecc", True)),
        signal_loss_prob=float(feat_doc.get("signal_loss_prob", 0.0)),
    )
    if not 0.0 <= features.signal_loss_prob <= 1.0:
        problems.append("features.signal_loss_prob: must be within [0, 1]")

    profile = _parse_faults(doc.get("faults", {}), problems, tiles, threads, fabric_cfg,
                            horizon if isinstance(horizon, int) else 0)

    scenario = Scenario(
        name=doc.get("name", name),
        seed=seed if isinstance(seed, int) else 0,
        horizon=horizon if isinstance(horizon, int) and horizon > 0 else 1,
        tiles=tiles,
        threads=threads,
        thread_groups=thread_groups,
        tile_groups=tile_groups,
        fabric=fabric_cfg,
        costs=costs,
        supervisor=sup,
        policy=policy,
        features=features,
        profile=profile,
        raw=doc,
    )

    if not problems:
        # checkpoints must be able to finish before the comparison deadline
        for g in tile_groups:
            specs = [threads[t] for t in scenario.group_threads(g)]
            worst = max((s.viable_delay for s in specs), default=0) + sum(
                s.checksum_cost + costs.context_switch for s in specs
            )
            deadline = scenario.comparison_deadline(g)
            if worst > deadline:
                problems.append(
                    f"tile_groups[{g.group_id}]: checkpoint cost {worst} exceeds "
                    f"comparison deadline {deadline}"
                )

    if problems:
        raise ScenarioError(problems)
    return scenario


def _parse_faults(doc, problems, tiles, threads, fabric_cfg, horizon) -> faults.FaultProfile:
    _check_unknown(problems, "faults", doc, {
        "rates", "explicit", "windows", "multi_word_prob", "sefi_duration",
    })
    sefi_duration = _duration(problems, "faults", doc, "sefi_duration", 1000)
    rates = dict(doc.get("rates", {}))
    for kind, rate in rates.items():
        if kind not in faults.KINDS:
            problems.append(f"faults.rates: unknown fault kind {kind!r}")
        elif not isinstance(rate, (int, float)) or rate < 0:
            problems.append(f"faults.rates.{kind}: must be a non-negative number")

    tile_ids = {t.tile_id for t in tiles}
    partition_ids = {t.partition for t in tiles} | {faults.fab.SHARED}
    explicit: list[faults.FaultEvent] = []
    for i, ev in enumerate(doc.get("explicit", [])):
        path = f"faults.explicit[{i}]"
        _check_unknown(problems, path, ev, {
            "at", "kind", "tile", "thread", "word", "mask", "masks",
            "partition", "cell", "flavor", "duration",
        })
        kind = ev.get("kind", "")
        if kind not in faults.KINDS:
            problems.append(f"{path}: unknown kind {kind!r}")
            continue
        at = ev.get("at", -1)
        if not isinstance(at, int) or at < 0:
            problems.append(f"{path}: 'at' must be a non-negative integer")
            continue
        if horizon and at >= horizon:
            problems.append(f"{path}: fault at t={at} is beyond the horizon")
        fault = faults.FaultEvent(at=at, kind=kind)
        if kind in (faults.TRANSIENT_STATE, faults.TRANSIENT_VMEM, faults.MEMORY_WORD):
            fault.tile = ev.get("tile")
            fault.thread = ev.get("thread")
            fault.word = int(ev.get("word", 0))
            masks = ev.get("masks", [ev.get("mask", 1)])
            fault.masks = tuple(int(m) for m in masks)
            if fault.tile not in tile_ids:
                problems.append(f"{path}: unknown tile {fault.tile!r}")
            if fault.thread not in threads:
                problems.append(f"{path}: unknown thread {fault.thread!r}")
            elif not (0 <= fault.word < threads[fault.thread].state_words):
                problems.append(f"{path}: word index out of range")
            if any(m == 0 for m in fault.masks):
                problems.append(f"{path}: masks must be non-zero")
        elif kind == faults.PERMANENT_CELL:
            fault.partition = ev.get("partition")
            fault.cell = int(ev.get("cell", 0))
            fault.flavor = ev.get("flavor", faults.fab.DD)
            if fault.partition not in partition_ids:
                problems.append(f"{path}: unknown partition {fault.partition!r}")
            if fault.flavor not in (faults.fab.DD, faults.fab.CONFIG):
                problems.append(f"{path}: flavor must be 'dd' or 'config'")
            cells = (fabric_cfg.shared_cells if fault.partition == faults.fab.SHARED
                     else fabric_cfg.cells_per_partition)
            if not (0 <= fault.cell < cells):
                problems.append(f"{path}: cell index out of range")
        elif kind == faults.SEFI_TILE:
            fault.tile = ev.get("tile")
            fault.duration = int(ev.get("duration", sefi_duration))
            if fault.tile not in tile_ids:
                problems.append(f"{path}: unknown tile {fault.tile!r}")
            if fault.duration <= 0:
                problems.append(f"{path}: duration must be positive")
        elif kind == faults.SEFI_SHARED:
            fault.duration = int(ev.get("duration", sefi_duration))
            if fault.duration <= 0:
                problems.append(f"{path}: duration must be positive")
        explicit.append(fault)

    windows = []
    for i, w in enumerate(doc.get("windows", [])):
        path = f"faults.windows[{i}]"
        _check_unknown(problems, path, w, {"start", "end", "factor"})
        start, end = int(w.get("start", 0)), int(w.get("end", 0))
        factor = float(w.get("factor", 1.0))
        if end <= start:
            problems.append(f"{path}: end must be after start")
        if factor < 0:
            problems.append(f"{path}: factor must be >= 0")
        windows.append(faults.RateWindow(start=start, end=end, factor=factor))

    multi = float(doc.get("multi_word_prob", 0.0))
    if not 0.0 <= multi <= 1.0:
        problems.append("faults.multi_word_prob: must be within [0, 1]")

    try:
        return faults.FaultProfile(
            rates={k: float(v) for k, v in rates.items() if k in faults.KINDS},
            explicit=explicit,
            windows=windows,
            multi_word_prob=multi,
            sefi_duration=sefi_duration,
        )
    except ValueError as exc:
        problems.append(f"faults: {exc}")
        return faults.FaultProfile()


def load_scenario(path_or_name: str, overrides: Optional[list[str]] = None) -> Scenario:
    """Load a scenario file or a bundled scenario by name."""
    if path_or_name in BUNDLED:
        text = (resources.files("tilesim") / "scenarios" / f"{path_or_name}.scenario").read_text()
        name = path_or_name
    else:
        with open(path_or_name) as fh:
            text = fh.read()
        name = path_or_name
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    for assignment in overrides or []:
        apply_override(doc, assignment)
    return parse_scenario(doc, name=name)
