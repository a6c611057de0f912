import dataclasses
import json
import typing
from importlib import resources

import pytest

from tilesim.criticality import CriticalityPolicy
from tilesim.faults import FaultEvent, FaultProfile, RateWindow
from tilesim.scenario import (
    BUNDLED, MAX_EXTRA_PARTITIONS, MAX_GROUP_MEMBERS, CostConfig, FabricConfig,
    FeatureConfig, Scenario, ScenarioError, SupervisorConfig, ThreadGroupConfig,
    TileConfig, TileGroupConfig, _fields, apply_override, load_scenario, parse_scenario,
)
from tilesim.simulation import Simulation
from tilesim.workload import ThreadSpec
from trace_corpus import chaos_doc, shared_tile_doc


def minimal_doc(**over):
    doc = {
        "name": "t",
        "seed": 1,
        "horizon": 5000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"}],
        "threads": [{"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
                     "state_words": 4, "work_per_tick": 50}],
        "thread_groups": [{"id": "TG1", "threads": ["Ta"]}],
        "tile_groups": [{"id": "G1", "members": ["C0", "C1", "C2"],
                         "thread_groups": ["TG1"]}],
    }
    doc.update(over)
    return doc


def test_bundled_scenarios_load():
    for name in BUNDLED:
        s = load_scenario(name)
        assert s.tile_groups
        assert s.horizon > 0


def test_minimal_scenario_parses_with_defaults():
    sim = Simulation(parse_scenario(minimal_doc()))
    g = sim.groups["G1"]
    assert g.base_period == 1000
    assert g.comparison_deadline == 100             # 10% of base period
    assert g.grace_period == 2 * 10                 # 2x summed update cost
    assert sim.watchdog_period == 4000              # 4x largest period


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal_doc(power_budget=3))
    assert "unknown key" in str(err.value)


def test_dangling_references_rejected():
    doc = minimal_doc()
    doc["tile_groups"][0]["members"] = ["C0", "C1", "C9"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "C9" in str(err.value)


def test_zero_horizon_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal_doc(horizon=0))
    assert "horizon" in str(err.value)


def test_all_problems_reported_at_once():
    doc = minimal_doc(horizon=0)
    doc["tile_groups"][0]["members"] = ["C0"]
    doc["thread_groups"].append({"id": "TG2", "threads": ["nope"]})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    text = str(err.value)
    assert "horizon" in text
    assert "at least 2 members" in text
    assert "nope" in text


def wide_group_doc(size):
    doc = minimal_doc()
    members = [f"C{i}" for i in range(size)]
    doc["tiles"] = [{"id": m} for m in members]
    doc["tile_groups"][0]["members"] = members
    return doc


def test_group_wider_than_bound_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(wide_group_doc(MAX_GROUP_MEMBERS + 1))
    assert err.value.problems == ["tile_groups[0]: at most 24 members"]


def test_group_at_bound_parses_and_runs():
    s = parse_scenario(wide_group_doc(MAX_GROUP_MEMBERS))
    assert len(s.tile_groups[0].members) == 24
    verdicts = Simulation(s).run().of_kind("verdict")
    assert verdicts
    assert all(v.payload["result"] == "all-agree" and v.payload["participants"] == 24
               for v in verdicts)


def test_spare_cannot_be_group_member():
    doc = minimal_doc()
    doc["tiles"][2]["spare"] = True
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "spare" in str(err.value)


def test_thread_group_assigned_twice_rejected():
    doc = minimal_doc()
    doc["tiles"].append({"id": "C3"})
    doc["tiles"].append({"id": "C4"})
    doc["tile_groups"].append(
        {"id": "G2", "members": ["C3", "C4"], "thread_groups": ["TG1"]})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "assigned twice" in str(err.value)


def thread_in_two_groups_doc():
    # without the check, the fault-free run has G1 and then G2 blame the
    # tile they share, C2, which holds one state for Ta and runs it twice
    doc = chaos_doc(3)
    del doc["faults"]
    doc["thread_groups"] = [{"id": "TG-ab", "threads": ["Ta", "Tb"]},
                            {"id": "TG-c", "threads": ["Tc", "Ta"]}]
    doc["tile_groups"] = shared_tile_doc(3, 2)["tile_groups"]
    return doc


def thread_listed_twice_doc():
    # without the check, Ta runs at twice Tb's rate
    doc = chaos_doc(3)
    del doc["faults"]
    doc["thread_groups"][0]["threads"] = ["Ta", "Ta", "Tb"]
    return doc


@pytest.mark.parametrize("make,problem", [
    pytest.param(thread_in_two_groups_doc,
                 "thread_groups[1]: thread 'Ta' is already listed in thread group 'TG-ab'",
                 id="in-two-groups"),
    pytest.param(thread_listed_twice_doc,
                 "thread_groups[0]: thread 'Ta' is already listed in thread group 'TG-ab'",
                 id="twice-in-one-group"),
])
def test_thread_listed_twice_rejected(make, problem):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(make())
    assert err.value.problems == [problem]


@pytest.mark.parametrize("override, problem", [
    ("threads[0].work_per_tick=0", "threads[0]: Ta: work_per_tick must be >= 1"),
    ("threads[0].state_words=0", "threads[0]: Ta: state_words must be >= 1"),
    ('threads[0].checkpoint_period="x"',
     "threads[0].checkpoint_period: must be a non-negative integer"),
    ('threads[0].state_words="x"', "threads[0].state_words: must be a non-negative integer"),
], ids=["work-zero", "words-zero", "period-a-string", "words-a-string"])
def test_bad_thread_is_one_problem(override, problem):
    # the thread is still declared, so the thread group and the explicit
    # fault that name it are not told it is unknown
    with pytest.raises(ScenarioError) as err:
        load_scenario("fig3", [override])
    assert err.value.problems == [problem]


@pytest.mark.parametrize("override, problem", [
    ("faults.explicit[0].thread=5", "faults.explicit[0].thread: must be a string or null"),
    ("faults.explicit[0].kind=5", "faults.explicit[0].kind: must be a string"),
    ("faults.explicit[0].tile=5", "faults.explicit[0].tile: must be a string or null"),
], ids=["thread-an-int", "kind-an-int", "tile-an-int"])
def test_bad_fault_field_is_one_problem(override, problem):
    # the default that replaces the bad value is not judged again as an
    # unknown thread, kind or tile
    with pytest.raises(ScenarioError) as err:
        load_scenario("fig3", [override])
    assert err.value.problems == [problem]


def test_thread_group_run_by_no_tile_group_rejected():
    # without the check, Tz runs nowhere until the Stage-3 plan at t=5656
    # starts it from its initial state, and TG-d is deactivated for it
    doc = json.loads(
        (resources.files("tilesim") / "scenarios" / "fig6.scenario").read_text())
    doc["threads"].append({**doc["threads"][0], "id": "Tz", "criticality": 9})
    doc["thread_groups"].append({"id": "TG-z", "threads": ["Tz"]})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    tgz = len(doc["thread_groups"]) - 1
    assert err.value.problems == [
        f"thread_groups[{tgz}]: thread group 'TG-z' is run by no tile group"]


# a tile group is named by its document index, the path --set takes, and
# not by its id ("G1" here)
def test_checkpoint_cost_must_fit_deadline():
    doc = minimal_doc()
    doc["threads"][0]["checksum_cost"] = 500
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.problems == [
        "tile_groups[0]: checkpoint cost 502 exceeds comparison deadline 100"]
    # the viable delay counts in full
    doc = minimal_doc()
    doc["threads"][0]["viable_delay"] = 150
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.problems == [
        "tile_groups[0]: checkpoint cost 162 exceeds comparison deadline 100"]


def test_spare_tile_cannot_be_a_member():
    doc = minimal_doc()
    doc["tiles"].append({"id": "C3", "spare": True})
    doc["tile_groups"][0]["members"] = ["C0", "C1", "C3"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.problems == ["tile_groups[0]: spare tile 'C3' cannot be a member"]


def test_fault_beyond_horizon_rejected():
    doc = minimal_doc()
    doc["faults"] = {"explicit": [{"at": 6000, "kind": "transient-state",
                                   "tile": "C0", "thread": "Ta", "word": 0}]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "beyond the horizon" in str(err.value)


def test_fault_target_validation():
    doc = minimal_doc()
    doc["faults"] = {"explicit": [{"at": 100, "kind": "transient-state",
                                   "tile": "C0", "thread": "Ta", "word": 12}]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "word index" in str(err.value)


def test_syntax_error_reports_line():
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".scenario", delete=False) as fh:
        fh.write('{\n  "seed": 1,\n  broken\n}\n')
        path = fh.name
    try:
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert "line 3" in str(err.value)
    finally:
        os.unlink(path)


def test_override_simple_and_nested():
    doc = minimal_doc()
    apply_override(doc, "seed=99")
    apply_override(doc, "threads[0].checkpoint_period=2000")
    assert doc["seed"] == 99
    assert doc["threads"][0]["checkpoint_period"] == 2000


def test_override_wildcard():
    doc = minimal_doc()
    doc["threads"].append(dict(doc["threads"][0], id="Tb"))
    apply_override(doc, "threads[*].checkpoint_period=4000")
    assert all(t["checkpoint_period"] == 4000 for t in doc["threads"])


def test_override_bad_path():
    for assignment in ("threads[5].nope=1", "threads[5]=1", "seed.nope=1"):
        with pytest.raises(ScenarioError):
            apply_override(minimal_doc(), assignment)


def test_override_creates_defaulted_section():
    doc = minimal_doc()  # has no "features" key
    apply_override(doc, "features.signal_loss_prob=0.5")
    assert doc["features"] == {"signal_loss_prob": 0.5}
    s = parse_scenario(doc)
    assert s.features.signal_loss_prob == 0.5
    # typos in created sections are still rejected downstream
    bad = minimal_doc()
    apply_override(bad, "features.nope=1")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


BAD_VALUE_CASES = [
    ("fig3", "supervisor.defunct_threshold=-5", "supervisor.defunct_threshold"),
    ("fig3", "costs.boot_time=-1", "costs.boot_time"),
    ("fig3", 'costs.boot_time="abc"', "costs.boot_time"),
    ("storm", "faults.sefi_duration=-10", "faults.sefi_duration"),
    ("fig3", "faults.sefi_duration=0", "faults.sefi_duration"),
    ("fig3", "faults.explicit[0].masks=[0]", "faults.explicit[0]"),
    ("fig3", 'faults.explicit[0].masks=["a"]', "faults.explicit[0].masks"),
    ("fig3", "costs=3", "costs"),
    ("fig3", "threads[0]=5", "threads[0]"),
    ("exhaustion", "faults.explicit[0].cell=64", "faults.explicit[0]"),
]

# every section and the first entry of each list, by the dataclass it configures
SECTIONS = {
    "": Scenario, "tiles[0]": TileConfig, "threads[0]": ThreadSpec,
    "tile_groups[0]": TileGroupConfig, "fabric": FabricConfig, "costs": CostConfig,
    "supervisor": SupervisorConfig, "policy": CriticalityPolicy,
    "features": FeatureConfig, "faults": FaultProfile,
    "faults.explicit[0]": FaultEvent, "faults.windows[0]": RateWindow,
}


def field_cases():
    """Every int, float and bool field of each section, set to a string, to
    -1 and, if it is an int, to 2.5."""
    for path, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = hints[f.name]
            if kind not in (int, float, bool) or f.metadata.get("key", f.name) is None:
                continue
            field = f"{path}.{f.name}" if path else f.name
            name = "storm" if path == "faults.windows[0]" else "fig3"
            for value in ("abc", "-1") + (("2.5",) if kind is int else ()):
                yield name, f"{field}={value}", field


BAD_VALUE_CASES += [c for c in field_cases() if c not in BAD_VALUE_CASES]

# the knobs the document no longer has: any value given one is still
# rejected, as an unknown key named by its path
BAD_VALUE_CASES += [
    ("fig3", f"{field}={value}", field)
    for field in ("costs.full_reconfig_duration", "fabric.cells_per_partition",
                  "fabric.shared_cells", "supervisor.watchdog_period",
                  "supervisor.window_checkpoints", "tile_groups[0].comparison_deadline",
                  "tile_groups[0].grace_period")
    for value in ("abc", "-1", "2.5")
] + [
    ("fig3", "fabric.shared_cells=0", "fabric.shared_cells"),
    ("fig3", "supervisor.watchdog_period=-5", "supervisor.watchdog_period"),
    ("fig3", 'fabric.anchor_cells=["a"]', "fabric.anchor_cells"),
    ("fig3", "fabric.anchor_cells=[100]", "fabric.anchor_cells"),
]

# the keys a scenario document may set, by the dataclass that reads them
DOCUMENT_KEYS = {
    Scenario: {"name", "seed", "horizon", "tiles", "threads", "thread_groups",
               "tile_groups", "fabric", "costs", "supervisor", "policy", "features",
               "faults"},
    TileConfig: {"id", "capacity", "spare", "partition"},
    ThreadSpec: {"id", "criticality", "checkpoint_period", "state_words", "work_per_tick",
                 "checksum_cost", "sync_cost", "update_cost", "viable_delay",
                 "emits_output"},
    ThreadGroupConfig: {"id", "threads"},
    TileGroupConfig: {"id", "members", "thread_groups"},
    FabricConfig: {"extra_partitions"},
    CostConfig: {"context_switch", "boot_time", "reconfig_duration"},
    SupervisorConfig: {"transient_threshold", "defunct_threshold"},
    CriticalityPolicy: {"high_threshold", "min_replicas_high", "min_replicas_low"},
    FeatureConfig: {"output_voting", "ecc", "signal_loss_prob"},
    FaultProfile: {"rates", "explicit", "windows", "multi_word_prob", "sefi_duration"},
    FaultEvent: {"at", "kind", "tile", "thread", "word", "masks", "partition", "cell",
                 "flavor", "duration"},
    RateWindow: {"start", "end", "factor"},
}


def test_document_key_census():
    # every scenario knob is a key here, so adding or removing one is a
    # reviewed change to this table
    assert {cls: set(_fields(cls)[0]) for cls in DOCUMENT_KEYS} == DOCUMENT_KEYS
    assert sum(map(len, DOCUMENT_KEYS.values())) == 62


@pytest.mark.parametrize("name, override, field", BAD_VALUE_CASES)
def test_bad_durations_rejected(name, override, field):
    # a bad value is a problem naming its field; many of these used to crash
    # the run or the parser, or to run with a truncated value
    with pytest.raises(ScenarioError) as err:
        load_scenario(name, [override])
    assert [p for p in err.value.problems if p.startswith(field + ":")]


def test_mask_must_fit_in_64_bits():
    # a state word has 64 bits: a wider mask would flip none of them, and
    # its fault would count as undetected
    with pytest.raises(ScenarioError) as err:
        load_scenario("fig3", [f"faults.explicit[0].mask={2**64}"])
    assert err.value.problems == ["faults.explicit[0]: masks must be below 2**64"]
    widest = load_scenario("fig3", [f"faults.explicit[0].mask={2**64 - 1}"])
    assert widest.profile.explicit[0].masks == (2**64 - 1,)


@pytest.mark.parametrize("assignment", [
    "fabric.variants=[[0,1]]",
    "fabric.shared_variants=[[0,1]]",
    'policy.degradation_order=["deactivate"]',
    "policy.frequency_factor=2",
    "policy.max_period_factor=8",
    "fabric.cells_per_partition=32",
    "fabric.shared_cells=32",
    "fabric.anchor_cells=[0,1]",
    "costs.full_reconfig_duration=100",
    "supervisor.watchdog_period=1",
    "supervisor.window_checkpoints=10",
    "tile_groups[0].comparison_deadline=80",
    "tile_groups[0].grace_period=10",
])
def test_fixed_variants_and_ladder_take_no_key(assignment):
    # every partition has the same cells and variants; a group's deadline
    # and grace period, the watchdog period, the fault window and the full
    # reconfiguration time are derived or constant; and Stage 3's lever
    # order, frequency step and period cap are constants of criticality.py
    with pytest.raises(ScenarioError) as err:
        load_scenario("fig3", [assignment])
    assert err.value.problems == [assignment.partition("=")[0] + ": unknown key"]


def test_a_run_leaves_its_scenario_as_parsed():
    # the run numbers its faults; the scenario's own events keep the id
    # they were parsed with, so a scenario can be run again or copied
    doc = json.loads(
        (resources.files("tilesim") / "scenarios" / "fig3.scenario").read_text())
    sc = parse_scenario(doc, name="fig3")
    Simulation(sc).run()
    assert sc.profile.explicit[0].fault_id == -1
    assert sc == parse_scenario(doc, name="fig3")


@pytest.mark.parametrize("partition,extra", [
    ("shared", 0), ("free0", 1), ("free2", 3),
])
def test_tile_partition_cannot_take_a_fabric_name(partition, extra):
    doc = minimal_doc(fabric={"extra_partitions": extra})
    doc["tiles"][1]["partition"] = partition
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.problems == [
        f"tiles[1].partition: {partition!r} names a partition of the fabric's own"]


@pytest.mark.parametrize("partition", ["free1", "free01", "free", "shared0"])
def test_tile_partition_may_look_like_a_fabric_name(partition):
    doc = minimal_doc(fabric={"extra_partitions": 1})
    doc["tiles"][1]["partition"] = partition
    sim = Simulation(parse_scenario(doc))
    assert sim.fabric.partitions[partition].hosted_tile == "C1"


def test_extra_partitions_over_bound_rejected():
    doc = minimal_doc(fabric={"extra_partitions": MAX_EXTRA_PARTITIONS + 1})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.problems == [f"fabric.extra_partitions: at most {MAX_EXTRA_PARTITIONS}"]


def test_extra_partitions_at_bound_parses_and_runs():
    sc = parse_scenario(minimal_doc(fabric={"extra_partitions": MAX_EXTRA_PARTITIONS}))
    sim = Simulation(sc)
    assert f"free{MAX_EXTRA_PARTITIONS - 1}" in sim.fabric.free_partitions()
    sim.run()


def test_canonical_json_is_stable():
    a = parse_scenario(minimal_doc())
    b = parse_scenario(minimal_doc())
    assert a.canonical_json() == b.canonical_json()
