"""Scenario files: the full configuration space of a run.

A scenario is a JSON document (conventionally ``*.scenario``) naming the
tiles, free partitions, threads, group assignments, thresholds, fault
profile, seed, and horizon. Loading validates everything up front and
reports every problem at once, with a JSON path for each.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import typing
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Optional

from . import faults
from .criticality import CriticalityPolicy
from .engine import MASK64
from .fabric import CELLS, reserved_partition_id
from .tiles import TileGroup
from .trace import decode_utf8, encode_canonical
from .workload import ThreadSpec

BUNDLED = ("fig3", "fig6", "exhaustion", "storm")

# The widest tile group a scenario may declare. Arbitration's worst case, an
# agreement graph of disagreeing triples, has 3^(n/3) largest cliques; at 24
# members one such checkpoint takes about 10 ms to judge.
MAX_GROUP_MEMBERS = 24

# The most free partitions a fabric may add beyond the tiles' own. A run
# builds each of them and every relocation sorts them all; at 1024 that adds
# about 1 ms to construction and 0.1 ms to each relocation.
MAX_EXTRA_PARTITIONS = 1024


class ScenarioError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))


# documents spell a config's id field "id" (see `_fields`)
_ID = {"key": "id"}


@dataclass
class TileConfig:
    tile_id: str = field(metadata=_ID)
    capacity: float = 1_000_000.0
    spare: bool = False
    partition: str = ""


@dataclass
class TileGroupConfig:
    group_id: str = field(metadata=_ID)
    members: list[str] = field(default_factory=list)
    thread_groups: list[str] = field(default_factory=list)


@dataclass
class ThreadGroupConfig:
    tg_id: str = field(metadata=_ID)
    threads: list[str] = field(default_factory=list)


@dataclass
class FabricConfig:
    extra_partitions: int = 0


@dataclass
class CostConfig:
    context_switch: int = 2
    boot_time: int = 500
    reconfig_duration: int = 1000


@dataclass
class SupervisorConfig:
    transient_threshold: int = 3
    defunct_threshold: int = 10


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
    profile: faults.FaultProfile = field(default_factory=faults.FaultProfile,
                                         metadata={"key": "faults"})
    raw: dict = field(default_factory=dict, metadata={"key": None})

    def canonical_json(self) -> str:
        return encode_canonical(self.raw)


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
        try:
            if not rest:
                node[key] = value
                return
            child = node[key]
        except KeyError:
            # defaulted sections may be absent; typos are still caught by
            # the unknown-key validation afterwards
            child = node[key] = {}
        except (IndexError, TypeError):
            raise ScenarioError([f"override {path}: {tok!r} not found"])
        assign(child, rest)

    assign(doc, tokens)


def _scalar(what, whats, *types):
    """The rule for a scalar field whose values are of one of `types`, and
    not negative if they are numbers."""
    number, cast = int in types, float if float in types else None

    def convert(v):
        if type(v) in types and (not number or v >= 0):
            return v if cast is None else cast(v)
        raise ValueError
    return convert, what, whats


# field type -> (converter, what one value must be, what many values must be)
_SCALARS = {
    int: _scalar("a non-negative integer", "non-negative integers", int),
    float: _scalar("a non-negative number", "non-negative numbers", int, float),
    bool: _scalar("true or false", "flags", bool),
    str: _scalar("a string", "strings", str),
}


def _rule(hint):
    """``(converter, what one value must be, what many must be)`` for a field
    typed `hint`; a converter raises ValueError on a bad value. None for a
    section: a type that holds a dataclass, which the caller reads itself."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if dataclasses.is_dataclass(hint):
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    item = _rule(args[1] if origin is dict else args[0])
    if item is None:
        return None
    convert, what, whats = item
    if origin is typing.Union:                  # Optional[...]
        return (lambda v: None if v is None else convert(v)), what + " or null", whats
    if origin is dict:
        def convert_object(v):
            if type(v) is not dict:
                raise ValueError
            return {k: convert(x) for k, x in v.items()}
        return convert_object, "an object of " + whats, "objects of " + whats

    def convert_list(v):                        # a list, or a tuple from a JSON list
        if type(v) is not list:
            raise ValueError
        return origin(convert(x) for x in v)
    return convert_list, "a list of " + whats, "lists of " + whats


@functools.cache
def _fields(cls):
    """The document keys of dataclass `cls`: ``{key: (field name, converter,
    what the value must be)}``, with converter None for a section, and the
    ``(key, field name, zero)`` of each non-section field without a default.

    A key is the field's name unless its metadata names another key, or
    None for a field that documents do not set."""
    hints = typing.get_type_hints(cls)
    table, required = {}, []
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        if key is None:
            continue
        rule = _rule(hints[f.name]) or (None, None, None)
        table[key] = (f.name, *rule[:2])
        if rule[0] and f.default is f.default_factory is dataclasses.MISSING:
            required.append((key, f.name, hints[f.name]()))
    return table, required


def _read(problems, path, doc, cls, **given) -> dict:
    """Keyword arguments for dataclass `cls` from its JSON object `doc`.

    Every key must name a field, and a value must be of the field's type:
    numbers are non-negative, an int field takes no float, a flag is true or
    false, and a list or tuple field takes a JSON list. Each bad value is one
    problem naming the field. A missing or bad field keeps its default: the
    value in `given`, else the dataclass default, else zero, with a problem
    if a field without a default is missing. Sections are left to the
    caller."""
    if type(doc) is not dict:
        problems.append(f"{path}: must be an object")
        doc = {}
    prefix = f"{path}." if path else ""
    table, required = _fields(cls)
    for key, value in doc.items():
        if key not in table:
            problems.append(f"{prefix}{key}: unknown key")
            continue
        name, convert, what = table[key]
        if convert is not None:
            try:
                given[name] = convert(value)
            except ValueError:
                problems.append(f"{prefix}{key}: must be {what}")
    for key, name, zero in required:
        if name not in given:
            if key not in doc:
                problems.append(f"{prefix}{key}: required")
            given[name] = zero
    return given


def _entries(problems, path, value):
    """``(index, entry)`` for each JSON object in the list section at `path`;
    any other entry, or a section that is not a list, is a problem."""
    if type(value) is not list:
        problems.append(f"{path}: must be a list")
        return
    for i, entry in enumerate(value):
        if type(entry) is dict:
            yield i, entry
        else:
            problems.append(f"{path}[{i}]: must be an object")


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    if type(doc) is not dict:
        raise ScenarioError([f"{name}: must be an object"])
    problems: list[str] = []
    top = _read(problems, "", doc, Scenario, name=name, seed=0)
    if doc.get("horizon") == 0:     # a missing or bad horizon is a problem already
        problems.append("horizon: must be positive")

    def section(key, cls):
        return cls(**_read(problems, key, doc.get(key, {}), cls))

    fabric_cfg = section("fabric", FabricConfig)
    tiles: list[TileConfig] = []
    tile_ids: set[str] = set()
    for i, t in _entries(problems, "tiles", doc.get("tiles", [])):
        path = f"tiles[{i}]"
        tile = TileConfig(**_read(problems, path, t, TileConfig,
                                  tile_id=f"tile{i}", partition=f"p{i}"))
        if tile.tile_id in tile_ids:
            problems.append(f"{path}: duplicate tile id {tile.tile_id!r}")
        if reserved_partition_id(tile.partition, fabric_cfg.extra_partitions):
            problems.append(f"{path}.partition: {tile.partition!r} names a partition "
                            "of the fabric's own")
        tile_ids.add(tile.tile_id)
        tiles.append(tile)
    if not tiles:
        problems.append("tiles: at least one tile required")
    partitions = [t.partition for t in tiles]
    if len(set(partitions)) != len(partitions):
        problems.append("tiles: partitions must be distinct")

    threads: dict[str, ThreadSpec] = {}
    thread_ids: set[str] = set()    # every declared thread, a faulty one too
    for i, th in _entries(problems, "threads", doc.get("threads", [])):
        path = f"threads[{i}]"
        known = len(problems)
        kwargs = _read(problems, path, th, ThreadSpec, thread_id=f"thread{i}", criticality=0)
        tid = kwargs["thread_id"]
        if tid in thread_ids:
            problems.append(f"{path}: duplicate thread id {tid!r}")
            continue
        thread_ids.add(tid)
        if len(problems) > known:
            continue    # ThreadSpec would judge the defaults that replaced bad values
        try:
            threads[tid] = ThreadSpec(**kwargs)
        except ValueError as exc:
            problems.append(f"{path}: {exc}")

    thread_groups: list[ThreadGroupConfig] = []
    tg_paths: dict[str, str] = {}    # thread group id -> its first document path
    listed: dict[str, str] = {}    # thread id -> the thread group that lists it
    for i, tg in _entries(problems, "thread_groups", doc.get("thread_groups", [])):
        path = f"thread_groups[{i}]"
        tgc = ThreadGroupConfig(**_read(problems, path, tg, ThreadGroupConfig, tg_id=f"TG{i}"))
        if tgc.tg_id in tg_paths:
            problems.append(f"{path}: duplicate thread group id {tgc.tg_id!r}")
        tg_paths.setdefault(tgc.tg_id, path)
        if not tgc.threads:
            problems.append(f"{path}: thread group is empty")
        for tid in tgc.threads:
            if tid not in thread_ids:
                problems.append(f"{path}: unknown thread {tid!r}")
            elif tid in listed:
                # a tile holds one state per thread id, so a second listing
                # would run the thread twice, or in two groups at once
                problems.append(f"{path}: thread {tid!r} is already listed in "
                                f"thread group {listed[tid]!r}")
            listed.setdefault(tid, tgc.tg_id)
        thread_groups.append(tgc)

    spare_ids = {t.tile_id for t in tiles if t.spare}
    tile_groups: list[TileGroupConfig] = []
    group_paths: list[str] = []     # the document path of each of tile_groups
    group_ids: set[str] = set()
    assigned_tgs: set[str] = set()
    for i, g in _entries(problems, "tile_groups", doc.get("tile_groups", [])):
        path = f"tile_groups[{i}]"
        group = TileGroupConfig(**_read(problems, path, g, TileGroupConfig, group_id=f"G{i}"))
        if group.group_id in group_ids:
            problems.append(f"{path}: duplicate tile group id {group.group_id!r}")
        group_ids.add(group.group_id)
        members = group.members
        if len(members) < 2:
            problems.append(f"{path}: tile groups need at least 2 members")
        if len(members) > MAX_GROUP_MEMBERS:
            problems.append(f"{path}: at most {MAX_GROUP_MEMBERS} members")
        if len(set(members)) != len(members):
            problems.append(f"{path}: duplicate members")
        for m in members:
            if m not in tile_ids:
                problems.append(f"{path}: unknown tile {m!r}")
            elif m in spare_ids:
                problems.append(f"{path}: spare tile {m!r} cannot be a member")
        if not group.thread_groups:
            problems.append(f"{path}: no thread groups assigned")
        for tgid in group.thread_groups:
            if tgid not in tg_paths:
                problems.append(f"{path}: unknown thread group {tgid!r}")
            elif tgid in assigned_tgs:
                problems.append(f"{path}: thread group {tgid!r} assigned twice")
            assigned_tgs.add(tgid)
        tile_groups.append(group)
        group_paths.append(path)
    if not tile_groups:
        problems.append("tile_groups: at least one tile group required")
    else:
        # a thread group that no tile group runs would first start at a
        # Stage-3 plan, from its initial state, and could displace others
        for tg_id, path in tg_paths.items():
            if tg_id not in assigned_tgs:
                problems.append(f"{path}: thread group {tg_id!r} is run by no tile group")

    if fabric_cfg.extra_partitions > MAX_EXTRA_PARTITIONS:
        problems.append(f"fabric.extra_partitions: at most {MAX_EXTRA_PARTITIONS}")

    costs = section("costs", CostConfig)

    sup = section("supervisor", SupervisorConfig)
    if sup.transient_threshold >= sup.defunct_threshold:
        problems.append("supervisor: transient_threshold must be below defunct_threshold")

    try:
        policy = section("policy", CriticalityPolicy)
    except ValueError as exc:
        problems.append(f"policy: {exc}")
        policy = CriticalityPolicy()

    features = section("features", FeatureConfig)
    if features.signal_loss_prob > 1.0:
        problems.append("features.signal_loss_prob: must be within [0, 1]")

    profile = _parse_faults(doc.get("faults", {}), problems, tiles, threads, thread_ids,
                            top["horizon"])

    scenario = Scenario(
        **top,
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
        # bind refuses a group whose rounds cannot finish by the comparison deadline
        tg_threads = {tgc.tg_id: tgc.threads for tgc in thread_groups}
        for path, g in zip(group_paths, tile_groups):
            try:
                TileGroup(g.group_id, g.members, g.thread_groups).bind(
                    [threads[t] for tg in g.thread_groups for t in tg_threads[tg]],
                    costs.context_switch)
            except ValueError as exc:
                problems.append(f"{path}: {exc}")

    if problems:
        raise ScenarioError(problems)
    return scenario


def _parse_faults(doc, problems, tiles, threads, thread_ids, horizon) -> faults.FaultProfile:
    kwargs = _read(problems, "faults", doc, faults.FaultProfile)
    for kind in [k for k in kwargs.get("rates", ()) if k not in faults.KINDS]:
        problems.append(f"faults.rates: unknown fault kind {kind!r}")
        del kwargs["rates"][kind]
    profile = faults.FaultProfile(**kwargs)
    if profile.multi_word_prob > 1.0:
        problems.append("faults.multi_word_prob: must be within [0, 1]")
    if profile.sefi_duration == 0:
        problems.append("faults.sefi_duration: must be positive")
    if type(doc) is not dict:
        return profile

    tile_ids = {t.tile_id for t in tiles}
    partition_ids = {t.partition for t in tiles} | {faults.fab.SHARED}
    for i, ev in _entries(problems, "faults.explicit", doc.get("explicit", [])):
        path = f"faults.explicit[{i}]"
        if "mask" in ev:     # "mask": m is short for "masks": [m]
            ev = dict(ev)
            ev.setdefault("masks", [ev.pop("mask")])
        known = len(problems)
        fault = faults.FaultEvent(**_read(problems, path, ev, faults.FaultEvent,
                                          masks=(1,), duration=profile.sefi_duration))
        if len(problems) > known:
            continue    # the checks below would judge the defaults that replaced bad values
        kind = fault.kind
        if kind not in faults.KINDS:
            problems.append(f"{path}: unknown kind {kind!r}")
            continue
        if horizon and fault.at >= horizon:
            problems.append(f"{path}: fault at t={fault.at} is beyond the horizon")
        if kind in (faults.TRANSIENT_STATE, faults.TRANSIENT_VMEM, faults.MEMORY_WORD):
            if fault.tile not in tile_ids:
                problems.append(f"{path}: unknown tile {fault.tile!r}")
            if fault.thread not in thread_ids:
                problems.append(f"{path}: unknown thread {fault.thread!r}")
            elif fault.thread in threads and fault.word >= threads[fault.thread].state_words:
                problems.append(f"{path}: word index out of range")
            if any(m == 0 for m in fault.masks):
                problems.append(f"{path}: masks must be non-zero")
            if any(m > MASK64 for m in fault.masks):
                problems.append(f"{path}: masks must be below 2**64")
        elif kind == faults.PERMANENT_CELL:
            if fault.partition not in partition_ids:
                problems.append(f"{path}: unknown partition {fault.partition!r}")
            if fault.flavor not in (faults.fab.DD, faults.fab.CONFIG):
                problems.append(f"{path}: flavor must be 'dd' or 'config'")
            if fault.cell >= CELLS:
                problems.append(f"{path}: cell index out of range")
        else:                           # a functional interrupt
            if kind == faults.SEFI_TILE and fault.tile not in tile_ids:
                problems.append(f"{path}: unknown tile {fault.tile!r}")
            if fault.duration == 0:
                problems.append(f"{path}: duration must be positive")
        profile.explicit.append(fault)

    for i, w in _entries(problems, "faults.windows", doc.get("windows", [])):
        path = f"faults.windows[{i}]"
        window = faults.RateWindow(**_read(problems, path, w, faults.RateWindow))
        if window.end <= window.start:
            problems.append(f"{path}: end must be after start")
        profile.windows.append(window)
    return profile


def load_scenario(path_or_name: str, overrides: Optional[list[str]] = None) -> Scenario:
    """Load a scenario file or a bundled scenario by name."""
    if path_or_name in BUNDLED:
        path = resources.files("tilesim") / "scenarios" / f"{path_or_name}.scenario"
        text = path.read_text(encoding="utf-8")
        name = path_or_name
    else:
        with open(path_or_name, "rb") as fh:
            data = fh.read()
        try:
            text = decode_utf8(data)
        except ValueError as exc:
            raise ScenarioError([f"{path_or_name}: {exc}"])
        name = path_or_name
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    for assignment in overrides or []:
        apply_override(doc, assignment)
    return parse_scenario(doc, name=name)
