"""End-to-end protocol behavior on small scripted systems."""

import gc
import hashlib
import weakref
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tilesim import criticality as crit
from tilesim import faults as flt
from tilesim import lockstep, workload
from tilesim.metrics import compute_metrics
from tilesim.runner import run_simulation
from tilesim.scenario import BUNDLED, load_scenario, parse_scenario
from tilesim.simulation import GroupCheckpoint, Simulation
from tilesim.tiles import ACTIVE, DEFUNCT, IDLE_SPARE, REBOOTING, SUSPECT
from trace_corpus import chaos_doc, lossy_doc, reordered_doc, shared_tile_doc, wide_doc


def make_doc(**over):
    doc = {
        "name": "t", "seed": 3, "horizon": 8000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
                  {"id": "C3", "spare": True}],
        "threads": [{"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
                     "state_words": 4, "work_per_tick": 50,
                     "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
                    {"id": "Tb", "criticality": 5, "checkpoint_period": 1000,
                     "state_words": 4, "work_per_tick": 50,
                     "checksum_cost": 10, "sync_cost": 15, "update_cost": 15}],
        "thread_groups": [{"id": "TG1", "threads": ["Ta", "Tb"]}],
        "tile_groups": [{"id": "G1", "members": ["C0", "C1", "C2"],
                         "thread_groups": ["TG1"]}],
        "supervisor": {"transient_threshold": 3, "defunct_threshold": 10},
        "costs": {"context_switch": 2, "boot_time": 500},
    }
    doc.update(over)
    return doc


def transient(at, tile, thread="Ta", word=0, mask=0xBEEF):
    return {"at": at, "kind": "transient-state", "tile": tile,
            "thread": thread, "word": word, "mask": mask}


def run_doc(doc):
    scenario = parse_scenario(doc)
    return run_simulation(scenario)


# -- passivity and consistency ------------------------------------------------

def test_supervisor_passive_without_faults():
    trace, summary = run_doc(make_doc())
    assert summary.supervisor_commands == 0
    assert all(r.payload["result"] == "all-agree"
               for r in trace.of_kind("verdict"))


def test_post_checkpoint_states_pairwise_equal():
    scenario = parse_scenario(make_doc())
    sim = Simulation(scenario)
    sim.run()
    states = [
        [sim.tiles[m].threads[t].state for t in ("Ta", "Tb")]
        for m in ("C0", "C1", "C2")
    ]
    assert states[0] == states[1] == states[2]
    assert sim.oracle_divergences == 0


def test_checkpoint_start_record_keeps_its_participants():
    # the record is a copy: a tile dropped from the open round afterwards
    # leaves the trace as it was
    sim = Simulation(parse_scenario(make_doc()), until=1)
    trace = sim.run()
    ctx = sim.ctxs["G1"]
    assert (ctx.index, ctx.resolved) == (0, False)
    ctx.participants.remove("C2")
    start = trace.of_kind("checkpoint-start")[-1]
    assert start.payload["participants"] == ["C0", "C1", "C2"]


def test_single_transient_corrected_in_place():
    doc = make_doc(faults={"explicit": [transient(1500, "C2")]})
    trace, summary = run_doc(doc)
    assert summary.corrected == 1
    assert summary.undetected == 0
    # exactly one disagreement wave, then clean
    faulty = [r for r in trace.of_kind("verdict") if r.payload["result"] == "faulty"]
    assert len(faulty) == 1
    assert faulty[0].payload["faulty"] == ["C2"]
    assert any(r.kind == "update-success" and r.payload["tile"] == "C2"
               for r in trace.records)


def test_fault_counter_incremented_exactly_once():
    doc = make_doc(faults={"explicit": [transient(1500, "C1")]})
    scenario = parse_scenario(doc)
    sim = Simulation(scenario)
    sim.run()
    assert sim.supervisor.fault_counter == {"C1": 1}


def test_single_fault_recovery_within_two_checkpoints():
    # detection at the next checkpoint, full agreement again at the one after
    for tile in ("C0", "C1", "C2"):
        doc = make_doc(faults={"explicit": [transient(1300, tile, "Tb", 2)]})
        trace, summary = run_doc(doc)
        verdicts = trace.of_kind("verdict")
        faulty_idx = next(i for i, r in enumerate(verdicts)
                          if r.payload["result"] == "faulty")
        after = verdicts[faulty_idx + 1]
        assert after.payload["result"] == "all-agree"
        assert after.payload["participants"] == 3


def test_detection_completeness_every_word():
    # any single corrupted word must produce a disagree verdict at the next
    # checkpoint that checks the thread
    for word in range(4):
        for thread in ("Ta", "Tb"):
            doc = make_doc(faults={"explicit": [transient(1700, "C0", thread, word)]})
            trace, summary = run_doc(doc)
            assert summary.detected == 1
            assert summary.undetected == 0


# -- validation memory and SEFI ------------------------------------------------

@pytest.mark.parametrize("family, key", [
    *[("bundled", name) for name in ("exhaustion", "fig3", "fig6", "storm")],
    *[("chaos", seed) for seed in (0, 1, 2, 3, 4, 196)],
    *[("wide-group", seed) for seed in range(4)],
])
def test_the_writes_of_a_round_share_one_instant(family, key):
    # a round's deadline and its comparisons rely on every participant
    # writing its row at the same time
    sc = (load_scenario(key) if family == "bundled"
          else parse_scenario((chaos_doc if family == "chaos" else wide_doc)(key)))
    instants: dict[tuple, set] = {}
    for r in Simulation(sc).run().of_kind("validation-write"):
        instants.setdefault((r.payload["group"], r.payload["index"]), set()).add(r.at)
    assert instants
    assert all(len(at) == 1 for at in instants.values())


def test_validation_memory_corruption_detected():
    # a fourth member, C3, is SEFI-blocked when round 2 starts at t=2048, so
    # the round stays open from the writes at t=2072 to its deadline at
    # t=2148, and the flip of C1's stored Ta checksum at t=2100 lands
    # between the writes and the read
    doc = make_doc(
        tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"}, {"id": "C3"},
               {"id": "C4", "spare": True}],
        tile_groups=[{"id": "G1", "members": ["C0", "C1", "C2", "C3"],
                      "thread_groups": ["TG1"]}],
        faults={"explicit": [
            {"at": 1990, "kind": "sefi-tile", "tile": "C3", "duration": 200},
            {"at": 2100, "kind": "transient-validation-memory", "tile": "C1",
             "thread": "Ta", "word": 0, "mask": 1}]})
    trace, summary = run_doc(doc)
    flip = [r.payload for r in trace.of_kind("fault") if r.payload["id"] == 1]
    assert flip == [{"id": 1, "fault_kind": "transient-validation-memory",
                     "target": "C1/Ta[0]", "disposition": "applied", "index": 2}]
    verdict = [r.payload for r in trace.of_kind("verdict") if r.payload["index"] == 2]
    assert verdict[0]["faulty"] == ["C1", "C3"]
    detected = [r.payload for r in trace.of_kind("fault-detected") if r.payload["id"] == 1]
    assert detected == [{"id": 1, "tile": "C1", "group": "G1", "index": 2, "latency": 48}]
    assert summary.detected == 2
    assert summary.faults_by_kind["transient-validation-memory"] == {"corrected": 1}


def test_sefi_blocks_three_checkpoints_then_replacement():
    doc = make_doc(faults={"explicit": [
        {"at": 1500, "kind": "sefi-tile", "tile": "C2", "duration": 3000}]})
    trace, summary = run_doc(doc)
    misses = [r for r in trace.of_kind("checkpoint-report")
              if r.payload["verdicts"].get("C2") == "deadline-miss"]
    assert len(misses) == 6  # two healthy siblings x three checkpoints
    faulty = [r for r in trace.of_kind("verdict") if r.payload["result"] == "faulty"]
    assert len(faulty) == 3
    replaced = [r for r in trace.of_kind("command")
                if r.payload["command"] == "activate-with-mapping"]
    assert replaced and replaced[0].payload["tile"] == "C3"
    assert summary.replaced == 1


def test_sefi_shorter_than_period_is_absorbed():
    doc = make_doc(faults={"explicit": [
        {"at": 1100, "kind": "sefi-tile", "tile": "C2", "duration": 300}]})
    trace, summary = run_doc(doc)
    assert summary.absorbed == 1
    assert all(r.payload["result"] == "all-agree" for r in trace.of_kind("verdict"))


def sefi(at, duration, tile=None):
    if tile is None:
        return {"at": at, "kind": "sefi-shared", "duration": duration}
    return {"at": at, "kind": "sefi-tile", "tile": tile, "duration": duration}


@pytest.mark.parametrize("explicit, cleared, outcomes", [
    # the second SEFI on C2 takes over the block: the first one's expiry at
    # t=1400 neither clears it nor absorbs fault 0; the second one's at
    # t=1800 does both for fault 1
    ([sefi(1100, 300, "C2"), sefi(1200, 600, "C2")],
     [(1800, "injector", "C2")],
     [(1800, 1, "absorbed")]),
    # C2 is replaced and rebooted at t=4468 while fault 0 blocks it, which
    # lifts the block; back as a spare it takes fault 1 at t=5000, and fault
    # 0's expiry at t=5500 leaves that newer block alone
    ([sefi(1500, 4000, "C2"), sefi(5000, 1000, "C2")],
     [(4468, "C2", "C2"), (6000, "injector", "C2")],
     [(4468, 0, "replaced"), (6000, 1, "absorbed")]),
    # the same supersession on the shared region
    ([sefi(1100, 300), sefi(1200, 600)],
     [(1800, "injector", "shared")],
     [(1800, 1, "absorbed")]),
], ids=["second-tile-sefi", "reboot-during-block", "second-shared-sefi"])
def test_sefi_expiry_lifts_only_the_block_its_fault_holds(explicit, cleared, outcomes):
    trace, _ = run_doc(make_doc(faults={"explicit": explicit}))
    assert [(r.at, r.actor, r.payload["target"])
            for r in trace.of_kind("sefi-cleared")] == cleared
    assert [(r.at, r.payload["id"], r.payload["outcome"])
            for r in trace.of_kind("fault-outcome")] == outcomes


# -- oracle ------------------------------------------------------------------------

def test_oracle_sees_a_divergence_the_checksums_hide(monkeypatch):
    # with every checksum equal, the replica C2 corrupted at t=1500 agrees
    # with its siblings; only the oracle's boundary states tell them apart
    monkeypatch.setattr(workload, "checksum_callback", lambda ts: 0)
    sim = Simulation(parse_scenario(make_doc(faults={"explicit": [transient(1500, "C2")]})))
    trace = sim.run()
    records = trace.of_kind("oracle-divergence")
    assert sim.oracle_divergences >= 1
    assert sim.oracle_divergences == len(records)
    assert records[0].at == 2072
    assert records[0].payload == {"group": "G1", "index": 2, "thread": "Ta",
                                  "tiles": ["C0", "C2"]}
    assert {tuple(r.payload["tiles"]) for r in records} == {("C0", "C2"), ("C1", "C2")}


def reference_oracle_check(self, group, ctx):
    """The oracle as it compared every pair of participants in every round,
    kept as the reference for `Simulation._oracle_check`, which runs only
    on split rounds and skips a pair that shares one boundary dict."""
    boundaries = list(ctx.boundary.values())
    if all(b == boundaries[0] for b in boundaries[1:]):
        return  # no pair diverged
    now = self.queue.now
    for i, a in enumerate(ctx.participants):
        for b in ctx.participants[i + 1:]:
            ra, rb = ctx.reports.get(a), ctx.reports.get(b)
            if ra is None or rb is None:
                continue
            if (ra.get(b) != lockstep.AGREE
                    or rb.get(a) != lockstep.AGREE):
                continue
            sa, sb = ctx.boundary.get(a), ctx.boundary.get(b)
            if sa is None or sb is None:
                continue
            for tid in ctx.checked:
                if sa.get(tid) != sb.get(tid):
                    self.oracle_divergences += 1
                    self.trace.emit(now, "oracle", "oracle-divergence",
                                    {"group": group.group_id, "index": ctx.index,
                                     "thread": tid, "tiles": [a, b]})


@pytest.mark.parametrize("make, seed", [(chaos_doc, s) for s in range(6)]
                         + [(wide_doc, s) for s in range(4)])
def test_oracle_walk_matches_reference_oracle_check(monkeypatch, make, seed):
    # colliding checksums hide every divergence from the protocol, so the
    # oracle writes many records, over many pairs in the wide group
    monkeypatch.setattr(workload, "checksum_callback", lambda ts: 0)
    runs = []
    for oracle in (Simulation._oracle_check, reference_oracle_check):
        monkeypatch.setattr(Simulation, "_oracle_check", oracle)
        sim = Simulation(parse_scenario(make(seed)))
        records = sim.run().of_kind("oracle-divergence")
        assert sim.oracle_divergences == len(records)
        runs.append(records)
    assert runs[0]
    assert runs[0] == runs[1]


# -- per-checkpoint memo: shared work, and a fault stays on its tile ---------------

def test_checkpoint_memo_hit_survives_a_flip_of_an_earlier_result():
    # three replicas run from t=0 to the round's pause at t=350, 7 cycles
    sim = Simulation(parse_scenario(make_doc()))
    c0, c1, c2 = (sim.tiles[m] for m in ("C0", "C1", "C2"))
    ctx = GroupCheckpoint(group=sim.groups["G1"], index=1, t0=350,
                          participants=["C0", "C1", "C2"], members=["C0", "C1", "C2"],
                          checked=["Ta", "Tb"], written_at=374, deadline_at=450)
    for tile in (c0, c1, c2):
        sim._join(tile, sim.groups["G1"], 0)
    sim._advance_window(c0, "TG1", 350, ctx)
    sim._advance_window(c1, "TG1", 350, ctx)
    assert len(ctx.advanced) == 2  # one entry per thread, not per tile
    a, b = c0.threads["Ta"], c1.threads["Ta"]
    assert a is b
    assert a.cycle_counter == 7
    a = c0.threads["Ta"] = workload.flip_bits(a, 0, [1])
    assert b.state != a.state
    sim._advance_window(c2, "TG1", 350, ctx)
    assert c2.threads["Ta"] is b
    assert a.checksum != b.checksum


class CopiedStates(Simulation):
    """Before each timed round, gives its group's second member states equal
    to its own but other objects, so that no shortcut taken on state
    identity applies to that tile. Counts the rounds whose participants
    then hold more than one boundary dict."""
    split_rounds = 0

    def dispatch(self, ev):
        group = ev[3][0] if ev[2] is Simulation.start_checkpoint else None
        if group is not None and len(group.members) > 1:
            threads = self.tiles[group.members[1]].threads
            for tid, ts in threads.items():
                threads[tid] = workload.ThreadState(ts.spec, ts.state, ts.cycle_counter)
        super().dispatch(ev)
        if group is not None:
            ctx = self.ctxs.get(group.group_id)
            if ctx is not None and len({id(b) for b in ctx.boundary.values()}) > 1:
                self.split_rounds += 1


@pytest.mark.parametrize("doc", [
    load_scenario("fig3", ["horizon=20000", "faults={}"]),
    parse_scenario(make_doc(faults={"explicit": [transient(1500, "C2")]})),
    parse_scenario(chaos_doc(0)),
    parse_scenario(chaos_doc(1)),
    parse_scenario(shared_tile_doc(4, 3)),
    parse_scenario(wide_doc(0)),
], ids=["fig3-fault-free", "transient", "chaos-0", "chaos-1", "shared-tile-4", "wide-0"])
def test_equal_states_held_as_other_objects_keep_the_trace(doc):
    # the identity shortcuts of a round (the advance, the shared boundary
    # and the oracle's exit) only skip work whose result they know: a
    # replica holding equal states as other objects writes the same trace
    plain = Simulation(doc).run().to_jsonl()
    copied = CopiedStates(doc)
    assert copied.run().to_jsonl() == plain
    assert copied.split_rounds > 0


def test_fault_free_run_jumps_no_words_and_takes_no_checksum(monkeypatch):
    # replicas that no fault hit hold one state object, so every round's rows
    # are equal as states and no word is worked out
    calls = {"checksum_callback": 0, "_jump_words": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(workload, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(workload, name, counted)
    sim = Simulation(load_scenario("fig3", ["horizon=100000", "faults={}"]))
    verdicts = sim.run().of_kind("verdict")
    assert len(verdicts) > 90
    assert all(r.payload["result"] == "all-agree" for r in verdicts)
    assert calls == {"checksum_callback": 0, "_jump_words": 0}


def test_a_flip_undone_within_the_round_leaves_it_all_agree():
    # the second flip restores C2's words, which then match its siblings'
    # though they are a state of their own
    doc = make_doc(faults={"explicit": [transient(1500, "C2"), transient(1500, "C2")]})
    sim = Simulation(parse_scenario(doc))
    trace = sim.run()
    assert [r.payload["disposition"] for r in trace.of_kind("fault")] == ["applied"] * 2
    assert all(r.payload["result"] == "all-agree" for r in trace.of_kind("verdict"))
    assert sim.oracle_divergences == 0


# Traces with every checksum forced to 0. A round whose rows differ as
# states but collide as checksums goes to `compare_with_siblings`, which
# must report it as the unanimous path would.
COLLISION_DIGESTS = {
    "transient": "24a99641d6e1b39c984dfa1c811bb8574ace11c94a9e1eb4f2e436dbecf8a165",
    "chaos-0": "79031c541c8744d6ffb6730af990aed8561ab17ba4d118760c5588e38ca57957",
}


@pytest.mark.parametrize("name", sorted(COLLISION_DIGESTS))
def test_forced_checksum_collision_keeps_its_trace(monkeypatch, name):
    monkeypatch.setattr(workload, "checksum_callback", lambda ts: 0)
    doc = (make_doc(faults={"explicit": [transient(1500, "C2")]}) if name == "transient"
           else chaos_doc(0))
    sim = Simulation(parse_scenario(doc))
    trace = sim.run()
    assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == COLLISION_DIGESTS[name]
    if name == "transient":
        # the flipped replica collides with its siblings: no round detects it
        verdicts = trace.of_kind("verdict")
        assert [r.payload["result"] for r in verdicts] == ["all-agree"] * 8
        assert sim.oracle_divergences == 12


def test_until_zero_stops_at_zero():
    sim = Simulation(parse_scenario(make_doc()), until=0)
    assert sim.horizon == 0
    records = sim.run().records
    assert records[-1].kind == "run-end" and records[-1].at == 0
    assert all(r.at == 0 for r in records)


def test_negative_until_is_refused():
    with pytest.raises(ValueError, match="until must be >= 0, not -1"):
        Simulation(parse_scenario(make_doc()), until=-1)


@pytest.mark.parametrize("until", [0, 5000, 40000, 123457])
def test_until_runs_the_first_until_us_of_the_same_run(until):
    # generated faults are drawn over the scenario's horizon, so stopping
    # early reads the fault stream as the full run does
    scenario = load_scenario("storm")
    full = Simulation(scenario).run().records
    cut = Simulation(scenario, until=until).run().records
    assert scenario.horizon > until
    assert cut[0].payload == {**full[0].payload, "horizon": until}
    assert cut[1:-1] == [r for r in full[1:-1] if r.at <= until]
    assert (cut[-1].at, cut[-1].kind, cut[-1].payload) == (until, "run-end", {"reason": "horizon"})


def paused_at_first_checkpoint(doc):
    """The simulation right after the pause of checkpoint 1 at t=1024."""
    sim = Simulation(parse_scenario(doc), until=1024)
    sim.run()
    assert sim.ctxs["G1"].index == 1 and sim.ctxs["G1"].t0 == 1024
    return sim


def test_fault_after_a_memo_hit_changes_only_its_own_tile():
    sim = paused_at_first_checkpoint(make_doc())
    ctx = sim.ctxs["G1"]
    assert len(ctx.advanced) == 2  # one entry per thread, not per tile
    before = {m: dict(sim.tiles[m].threads) for m in ("C0", "C1", "C2")}
    sim.apply_fault(flt.FaultEvent(fault_id=0, at=1024, kind=flt.TRANSIENT_STATE,
                                   tile="C1", thread="Ta", word=2, masks=(0xFF,)))
    after = {m: dict(sim.tiles[m].threads) for m in ("C0", "C1", "C2")}
    assert after["C1"]["Ta"].state[2] == before["C1"]["Ta"].state[2] ^ 0xFF
    assert after["C1"]["Ta"].state[:2] == before["C1"]["Ta"].state[:2]
    assert after["C1"]["Tb"] == before["C1"]["Tb"]
    for m in ("C0", "C2"):
        assert after[m] == before[m]
    # the memo and the oracle's boundary still hold the unflipped state
    assert before["C1"]["Ta"] in ctx.advanced.values()
    assert ctx.boundary["C1"]["Ta"] == before["C1"]["Ta"]


def test_a_window_split_by_a_fault_shares_its_siblings_state():
    # the fault advances C1's window to t=500 outside any round; the round
    # at t=1024 then advances it the rest of the way to the very state the
    # memo holds for C0's and C2's whole advance
    doc = make_doc(faults={"explicit": [transient(500, "C1")]})
    sim = paused_at_first_checkpoint(doc)
    c0, c1, c2 = (sim.tiles[m].threads for m in ("C0", "C1", "C2"))
    assert c1["Tb"] is c0["Tb"] and c1["Tb"] is c2["Tb"]
    assert c1["Ta"] != c0["Ta"]
    assert [key[0] for key in sim.ctxs["G1"].advanced].count("Tb") == 1


@pytest.mark.parametrize("corrupt,partition", [("C0", "p0"), ("C2", "p2")])
def test_persistent_corruption_reaches_only_its_own_tile(corrupt, partition):
    # C0 advances first (a memo miss), C2 last (a hit): either way only the
    # damaged tile's state takes the XOR
    doc = make_doc(faults={"explicit": [
        {"at": 500, "kind": "permanent-cell", "partition": partition, "cell": 10}]})
    sim = paused_at_first_checkpoint(doc)
    assert sim.tiles[corrupt].persist_corrupt
    c0, c1 = [m for m in ("C0", "C1", "C2") if m != corrupt]
    for tid in ("Ta", "Tb"):
        state = {m: sim.tiles[m].threads[tid].state for m in ("C0", "C1", "C2")}
        assert state[c0] == state[c1]
        assert state[corrupt][0] != state[c0][0]
        assert state[corrupt][1:] == state[c0][1:]
        assert sim.tiles[c0].threads[tid] in sim.ctxs["G1"].advanced.values()


# -- replacement chains and spare conservation ----------------------------------

def test_spare_conservation_every_event():
    doc = make_doc(
        horizon=16000,
        supervisor={"transient_threshold": 1, "defunct_threshold": 10},
        faults={"explicit": [transient(1500, "C2"), transient(4600, "C1")]},
    )

    seen = []

    class Watched(Simulation):
        def dispatch(self, ev):
            super().dispatch(ev)
            pool = set(self.supervisor.spare_pool)
            members = {m for g in self.groups.values() for m in g.members}
            assert not pool & members, f"pooled tile is also a member at {self.queue.now}"
            assert set(self.tiles) == {t.tile_id for t in self.scenario.tiles}
            seen.append(len(pool))

    sim = Watched(parse_scenario(doc))
    sim.run()
    assert seen


def test_two_faults_exhaust_spares_then_stage2():
    doc = make_doc(
        horizon=16000,
        supervisor={"transient_threshold": 1, "defunct_threshold": 10},
        faults={"explicit": [transient(1500, "C2"), transient(4600, "C1")]},
    )
    trace, summary = run_doc(doc)
    # C2 replaced by the only spare; the second fault finds the pool filled
    # again by the rebooted C2
    acts = [r.payload["tile"] for r in trace.of_kind("command")
            if r.payload["command"] == "activate-with-mapping"]
    assert acts == ["C3", "C2"]
    assert summary.replaced == 2
    assert summary.undetected == 0


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("threshold", [2, 3])
def test_replaced_tile_back_in_another_group_skips_its_old_sync(threshold, seed):
    # with a 5-tick boot a replaced tile is back before the sync callback it
    # was given as a writer fires, and the spare restoration may put it into
    # the other group, whose threads it then holds instead
    doc = shared_tile_doc(seed, threshold)
    doc["costs"] = {"boot_time": 5}
    sim = Simulation(parse_scenario(doc))
    sim.run()
    assert sim.trace.records[-1].kind == "run-end"
    assert sim.oracle_divergences == 0


def pair_doc(**over):
    return make_doc(tiles=[{"id": "C0"}, {"id": "C1"}],
                    tile_groups=[{"id": "G1", "members": ["C0", "C1"],
                                  "thread_groups": ["TG1"]}], **over)


def test_group_reboot_on_pair_split():
    # two-member group with one corrupted: arbitration ties, group reboots
    doc = pair_doc(faults={"explicit": [transient(1500, "C1")]})
    trace, summary = run_doc(doc)
    unresolved = [r for r in trace.of_kind("verdict")
                  if r.payload["result"] == "unresolvable"]
    assert unresolved
    assert trace.of_kind("group-reboot")
    # after the reboot both replicas restart from init and agree again
    last = [r for r in trace.of_kind("verdict")][-1]
    assert last.payload["result"] == "all-agree"


# -- detection only: a group with correction off ---------------------------------

DETECT_ONLY_DIGESTS = {
    "faulty": "9a26e60885fb37975bc1d6f804833e5f6c15722bf232d5696edea37714b5e928",
    "unresolvable": "a0c7a9d549aece0f5a5513fa7e3884f8f2abaa1fd56e8ca3383969495da137d1",
}


@pytest.mark.parametrize("path,doc,payload", [
    ("faulty", make_doc(faults={"explicit": [transient(1500, "C1")]}),
     {"group": "G1", "index": 2, "faulty": ["C1"]}),
    ("unresolvable", pair_doc(faults={"explicit": [transient(1500, "C1")]}),
     {"group": "G1", "index": 2, "faulty": [], "unresolvable": True}),
])
def test_detection_only_group_reports_and_carries_on(path, doc, payload):
    # the faulty replica is blamed by the clique of three, or, in a pair,
    # both tiles are; either way nothing is corrected and the group resumes
    sim = Simulation(parse_scenario(doc))
    sim.groups["G1"].correction_enabled = False
    trace = sim.run()
    assert [r.payload["result"] for r in trace.of_kind("verdict")][2] == path
    detections = trace.of_kind("detection-only")
    assert detections[0].at == 2072 and detections[0].payload == payload
    assert [r.payload for r in trace.of_kind("fault-outcome")] == [
        {"id": 0, "outcome": "degraded"}]
    ends = [r.payload for r in trace.of_kind("checkpoint-end") if r.at == 2072]
    assert [(e["index"], e["result"]) for e in ends] == [(2, "detect-only")]
    assert not trace.of_kind("command", "group-reboot", "update-success")
    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    assert digest == DETECT_ONLY_DIGESTS[path]


def test_commanding_defunct_tile_rejected():
    scenario = parse_scenario(make_doc())
    sim = Simulation(scenario)
    tile = sim.tiles["C3"]
    tile.set_status(DEFUNCT)
    sim.command_tile("C3", "state-update", donor="C0", group=sim.groups["G1"])
    rejected = [r for r in sim.trace.records if r.kind == "command-rejected"]
    assert rejected and rejected[0].payload["reason"] == "defunct"


def test_tile_statuses_legal_at_end():
    doc = make_doc(faults={"explicit": [transient(1500, "C0")]})
    scenario = parse_scenario(doc)
    sim = Simulation(scenario)
    sim.run()
    for tile in sim.tiles.values():
        assert tile.status in (ACTIVE, IDLE_SPARE, REBOOTING, DEFUNCT)


# -- thread-group detachment -------------------------------------------------------

def _detach(sim, group_id, tg_id):
    sim._detach_tg(sim.groups[group_id], tg_id, sim.queue.now)


def test_detach_keeping_base_period_drops_the_threads_from_checkpoints():
    # both thread groups check every 1000 us, so detaching one leaves the
    # group's base period as it was; its threads must still leave the plan
    doc = make_doc(thread_groups=[{"id": "TG1", "threads": ["Ta"]},
                                  {"id": "TG2", "threads": ["Tb"]}])
    doc["tile_groups"][0]["thread_groups"] = ["TG1", "TG2"]
    sim = Simulation(parse_scenario(doc))
    sim.queue.schedule(2500, _detach, "G1", "TG2")
    trace = sim.run()
    group = sim.groups["G1"]
    assert group.base_period == 1000
    assert [s.thread_id for s in group.threads] == ["Ta"]
    writes = trace.of_kind("validation-write")
    assert {r.payload["threads"] for r in writes if r.at < 2500} == {2}
    assert {r.payload["threads"] for r in writes if r.at > 2500} == {1}


def test_detach_recomputes_a_default_grace_period():
    # the base period stays at 1000 us, but the group's update cost halves
    doc = make_doc(thread_groups=[{"id": "TG1", "threads": ["Ta"]},
                                  {"id": "TG2", "threads": ["Tb"]}])
    doc["tile_groups"][0]["thread_groups"] = ["TG1", "TG2"]
    sim = Simulation(parse_scenario(doc))
    group = sim.groups["G1"]
    assert group.grace_period == 2 * (15 + 15)
    sim.queue.schedule(2500, _detach, "G1", "TG2")
    trace = sim.run()
    assert (group.base_period, group.comparison_deadline) == (1000, 100)
    assert group.grace_period == 2 * 15
    assert not trace.of_kind("timer-adjusted")


def test_tiles_hold_states_only_for_the_threads_of_their_groups():
    # C2 serves both groups, and C5 is a spare
    sim = Simulation(parse_scenario(shared_tile_doc(0, 3)))
    sim._initial_boot()
    assert {m: sorted(tile.threads) for m, tile in sim.tiles.items()} == {
        "C0": ["Ta", "Tb"], "C1": ["Ta", "Tb"], "C2": ["Ta", "Tb", "Tc"],
        "C3": ["Tc"], "C4": ["Tc"], "C5": [],
    }


# -- Stage 3 plans, applied by hand --------------------------------------------------

def assert_one_host(sim):
    """Every thread group is in exactly one of two places: `host_of` maps it
    to the one tile group that lists it, or it is off every tile group and
    one `tg-deactivated` record names it."""
    deactivated = [r.payload["tg"] for r in sim.trace.of_kind("tg-deactivated")]
    for tg_id in sim.thread_groups:
        listing = [g for g in sim.groups.values() if tg_id in g.thread_groups]
        if tg_id in sim.host_of:
            assert len(listing) == 1 and listing[0] is sim.host_of[tg_id], tg_id
            assert tg_id not in deactivated, tg_id
        else:
            assert listing == [] and deactivated.count(tg_id) == 1, tg_id


@pytest.mark.parametrize("scenario", [
    load_scenario("fig6"),
    load_scenario("exhaustion", ["faults.explicit[0].cell=0"]),
    # the chaos seeds in 0-299 that write a Stage-3 plan
    *(parse_scenario(chaos_doc(seed)) for seed in (161, 171, 196)),
], ids=["fig6", "exhaustion-cell-0", "chaos-161", "chaos-171", "chaos-196"])
def test_every_thread_group_has_one_host_or_was_deactivated(scenario):
    sim = Simulation(scenario)
    sim.run()
    if scenario.name != "fig6":
        assert sim.trace.of_kind("stage3-plan")
    assert_one_host(sim)


def apply_by_hand(entry, prepare=lambda sim: None, doc=None, until=1500):
    """Run `doc` (the default scenario) to t=1500, `prepare` it, then apply a
    plan of one entry for TG1 and run on to `until`. Returns the simulation
    and the records the plan added."""
    sim = Simulation(parse_scenario(doc or make_doc()), until=until)
    added = []

    def apply(sim):
        prepare(sim)
        start = len(sim.trace.records)
        sim._apply_plan({"TG1": entry})
        added.extend((r.kind, r.payload) for r in sim.trace.records[start:])

    sim.queue.schedule(1500, apply)
    sim.run()
    assert_one_host(sim)
    return sim, added


def detect_only(sim):
    sim.groups["G1"].correction_enabled = False


def degraded(mode, *levers):
    return ("tg-degraded", {"tg": "TG1", "mode": mode, "levers": list(levers)})


def slowed(period):
    return [("timer-adjusted", {"tile": m, "group": "G1", "period": period})
            for m in ("C0", "C1", "C2")]


@pytest.mark.parametrize("factor, mode, levers, prepare, expected", [
    # the same factor: only a first degradation to detect-only is recorded
    (1, crit.MODE_DETECT_ONLY, (crit.REDUCE_REPLICAS,), lambda sim: None,
     [degraded("detect-only", "reduce-replicas")]),
    (1, crit.MODE_DETECT_ONLY, (crit.REDUCE_REPLICAS,), detect_only, []),
    (1, crit.MODE_FULL, (), lambda sim: None, []),
    # a new factor adjusts every member's timer, then records the mode
    (2, crit.MODE_DETECT_ONLY, (crit.REDUCE_FREQUENCY,), lambda sim: None,
     [*slowed(2000), degraded("detect-only", "reduce-checkpoint-frequency")]),
    (2, crit.MODE_FULL, (crit.REDUCE_FREQUENCY,), lambda sim: None,
     [*slowed(2000), degraded("full", "reduce-checkpoint-frequency")]),
    (2, crit.MODE_DETECT_ONLY, (crit.REDUCE_FREQUENCY,), detect_only,
     [*slowed(2000), degraded("detect-only", "reduce-checkpoint-frequency")]),
], ids=["same-detect-only", "same-already-detect-only", "same-full",
        "slower-detect-only", "slower-full", "slower-already-detect-only"])
def test_plan_slows_a_host_in_place(factor, mode, levers, prepare, expected):
    members = ("C0", "C1", "C2")
    entry = crit.PlanEntry("TG1", members, factor, mode, levers=levers)
    sim, records = apply_by_hand(entry, prepare)
    group = sim.groups["G1"]
    assert group.members == list(members)
    assert group.period == 1000 * factor
    assert group.correction_enabled == (mode == crit.MODE_FULL and prepare is not detect_only)
    assert records == expected


def test_plan_keeps_a_shared_host_that_keeps_its_tiles_and_period():
    # G1 runs TG1 and TG2: a plan that leaves TG1 on G1's tiles at G1's
    # period leaves G1 as it was and writes nothing
    doc = make_doc(thread_groups=[{"id": "TG1", "threads": ["Ta"]},
                                  {"id": "TG2", "threads": ["Tb"]}])
    doc["tile_groups"][0]["thread_groups"] = ["TG1", "TG2"]
    entry = crit.PlanEntry("TG1", ("C0", "C1", "C2"), 1, crit.MODE_FULL)
    sim, records = apply_by_hand(entry, doc=doc)
    assert records == []
    assert sim.host_of["TG1"] is sim.host_of["TG2"] is sim.groups["G1"]
    assert sim.groups["G1"].thread_groups == ["TG1", "TG2"]


def deactivate_tg1(sim):
    sim._apply_plan({"TG1": crit.PlanEntry("TG1", (), 1, crit.MODE_DEACTIVATED)})


def reboot_c2(sim):
    sim.command_tile("C2", "reboot")


@pytest.mark.parametrize("during_grace", [deactivate_tg1, reboot_c2],
                         ids=["stage3-dissolves-the-group", "a-later-round-starts"])
def test_grace_expiry_of_a_stale_round_writes_nothing(during_grace):
    # round 2 finds C2 faulty at t=2072, and its grace period runs to
    # t=2132. At t=2100 Stage 3 deactivates TG1, which dissolves G1 and its
    # round, or C2 reboots, is back at t=2105 and starts round 3. Either
    # way the expiry at t=2132 finds no round 2 to end.
    doc = make_doc(horizon=3000, costs={"context_switch": 2, "boot_time": 5},
                   faults={"explicit": [transient(1500, "C2")]})
    sim = Simulation(parse_scenario(doc))
    sim.queue.schedule(2100, during_grace)
    trace = sim.run()
    assert [r.payload["index"] for r in trace.of_kind("verdict")][2] == 2
    assert 2 not in [r.payload["index"] for r in trace.of_kind("checkpoint-end")]
    assert [r for r in trace.records if r.at == 2132] == []


def test_every_update_of_a_round_copies_from_one_donor():
    # Round 2 blames C2 at t=2072 and commands its update with donor C0.
    # C0, C1 and C2 propagate at t=2106, and the grace period runs to
    # t=2132. At t=2110, as if another group replaced a tile they shared, C0
    # leaves G1 and reboots, and spare C3 joins G1. At the expiry the first
    # roster member in the clique is C1, and both updates copy from it.
    doc = make_doc(horizon=3000, faults={"explicit": [transient(1500, "C2")]})
    sim = Simulation(parse_scenario(doc))

    def replace_c0(sim):
        sim.groups["G1"].members.remove("C0")
        sim.command_tile("C0", "reboot")
        sim._restore_groups()

    sim.queue.schedule(2110, replace_c0)
    trace = sim.run()
    command = trace.of_kind("command")[0]
    assert (command.at, command.payload) == (
        2072, {"tile": "C2", "command": "state-update", "donor": "C0"})
    assert [r.payload["tile"] for r in trace.of_kind("state-propagation")
            if r.at == 2106] == ["C0", "C1", "C2"]
    assert [(r.kind, r.payload) for r in trace.records
            if r.at == 2132 and r.kind in ("update-success", "update-failed",
                                           "fault-outcome")] == [
        ("update-success", {"tile": "C2", "group": "G1", "donor": "C1", "threads": 2}),
        ("fault-outcome", {"id": 0, "outcome": "corrected"}),
        ("update-success", {"tile": "C3", "group": "G1", "donor": "C1", "threads": 2}),
    ]
    assert sim.pending_updates == {}


def test_plan_migrates_onto_a_spare_and_a_suspect_tile():
    # C1 awaits a commanded update, and C3 is the idle spare
    entry = crit.PlanEntry("TG1", ("C0", "C1", "C3"), 1, crit.MODE_FULL)

    def command_update(sim):
        sim.command_tile("C1", "state-update", donor="C0", group=sim.groups["G1"])
        assert (sim.tiles["C1"].status, sim.tiles["C3"].status) == (SUSPECT, IDLE_SPARE)
        assert "C1" in sim.pending_updates and "C3" in sim.supervisor.spare_pool

    sim, records = apply_by_hand(entry, command_update)
    assert "G1" not in sim.groups
    assert sim.groups["TG1-m1"].members == ["C0", "C1", "C3"]
    assert "C3" not in sim.supervisor.spare_pool
    assert {m: sim.tiles[m].status for m in ("C0", "C1", "C3")} == dict.fromkeys(
        ("C0", "C1", "C3"), ACTIVE)
    assert "C1" not in sim.pending_updates
    state = {m: {t: (sim.tiles[m].threads[t].state, sim.tiles[m].threads[t].cycle_counter)
                 for t in ("Ta", "Tb")} for m in ("C0", "C1", "C3")}
    assert state["C0"] == state["C1"] == state["C3"]
    assert [k for k, _ in records] == ["timer-adjusted"] * 3 + ["tg-migrated"]
    assert records[-1][1] == {"tg": "TG1", "group": "TG1-m1", "tiles": ["C0", "C1", "C3"],
                              "mode": "full", "period_factor": 1}


def reboot_g1(sim):
    for m in sim.groups["G1"].members:
        sim.command_tile(m, "reboot")


def restart_by_hand():
    """Every member of G1 reboots at t=1500, and the plan puts TG1 on the
    two idle spares, C3 and C4, as `crit.reallocate` would: G1 has no tile
    left to donate a state. Returns what `apply_by_hand` does."""
    doc = make_doc(tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
                          {"id": "C3", "spare": True}, {"id": "C4", "spare": True}])
    entry = crit.PlanEntry("TG1", ("C3", "C4"), 1, crit.MODE_DETECT_ONLY,
                           levers=(crit.REDUCE_REPLICAS,))
    return apply_by_hand(entry, reboot_g1, doc)


def test_plan_restarts_a_group_with_no_donor_and_degrades_it():
    sim, records = restart_by_hand()
    group = sim.groups["TG1-m1"]
    assert not group.correction_enabled
    assert sim.supervisor.spare_pool == []
    for m in ("C3", "C4"):
        for spec in group.threads:
            ts = sim.tiles[m].threads[spec.thread_id]
            assert (ts.state, ts.cycle_counter) == (workload.init_thread(spec).state, 0)
    assert records == [
        ("tg-restarted", {"tg": "TG1", "reason": "no-donor"}),
        *[("timer-adjusted", {"tile": m, "group": "TG1-m1", "period": 1000})
          for m in ("C3", "C4")],
        ("tg-migrated", {"tg": "TG1", "group": "TG1-m1", "tiles": ["C3", "C4"],
                         "mode": "detect-only", "period_factor": 1}),
        ("tg-degraded", {"tg": "TG1", "mode": "detect-only",
                         "levers": ["reduce-replicas"]}),
    ]


def test_replicas_share_one_initial_state_until_a_fault_hits_one(monkeypatch):
    # at boot, at a spare's join (C3 replaces C2 after the fault at t=1500)
    # and at a no-donor restart, every joining replica gets the run's one
    # initial state object of its thread
    joined = []
    join = Simulation._join

    def watched_join(self, tile, group, now):
        held = set(tile.threads)
        join(self, tile, group, now)
        joined.extend((tile.tile_id, tid, ts is self.initial_states[tid])
                      for tid, ts in tile.threads.items() if tid not in held)

    monkeypatch.setattr(Simulation, "_join", watched_join)
    doc = make_doc(supervisor={"transient_threshold": 1, "defunct_threshold": 10},
                   faults={"explicit": [transient(1500, "C2")]})
    sim = Simulation(parse_scenario(doc))
    boot = []

    def flip(sim):
        boot.extend((m, tid, ts is sim.initial_states[tid])
                    for m in ("C0", "C1", "C2") for tid, ts in sim.tiles[m].threads.items())
        ev = flt.FaultEvent(at=0, kind=flt.TRANSIENT_STATE, fault_id=99,
                            tile="C2", thread="Ta", masks=(1,))
        sim.ledger.events[ev.fault_id] = ev
        sim.apply_fault(ev)
        spec = sim.scenario.threads["Ta"]
        assert sim.initial_states["Ta"] == workload.init_thread(spec)
        assert sim.tiles["C2"].threads["Ta"] != sim.initial_states["Ta"]
        assert all(sim.tiles[m].threads["Ta"] is sim.initial_states["Ta"]
                   for m in ("C0", "C1"))

    sim.queue.schedule(0, flip)   # after the boot, before round 0
    sim.run()
    assert sorted(boot) == [(m, tid, True) for m in ("C0", "C1", "C2") for tid in ("Ta", "Tb")]
    assert ("C3", "Ta", True) in joined and ("C3", "Tb", True) in joined
    assert all(same for _, _, same in joined)

    sim, _ = restart_by_hand()
    assert all(sim.tiles[m].threads[tid] is sim.initial_states[tid]
               for m in ("C3", "C4") for tid in ("Ta", "Tb"))


def test_a_no_donor_restart_drops_the_states_a_tile_kept():
    # G1 runs TG1 (Ta, Tb) and TG2 (Tc). At t=1500 TG1 moves to the spares
    # C3 and C4, which then reboot, and a plan puts TG1 back on G1's tiles.
    # They still hold the states TG1 ran there, but restart from the run's
    # initial states, for no tile is left to donate one.
    tc = {**make_doc()["threads"][0], "id": "Tc"}
    doc = make_doc(tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
                          {"id": "C3", "spare": True}, {"id": "C4", "spare": True}],
                   threads=[*make_doc()["threads"], tc],
                   thread_groups=[{"id": "TG1", "threads": ["Ta", "Tb"]},
                                  {"id": "TG2", "threads": ["Tc"]}])
    doc["tile_groups"][0]["thread_groups"] = ["TG1", "TG2"]
    g1 = ("C0", "C1", "C2")

    def move_tg1_away_and_reboot_its_tiles(sim):
        sim._apply_plan({"TG1": crit.PlanEntry("TG1", ("C3", "C4"), 1, crit.MODE_FULL)})
        for m in ("C3", "C4"):
            sim.command_tile(m, "reboot")
        assert not any(sim.tiles[m].threads[tid] is sim.initial_states[tid]
                       for m in g1 for tid in ("Ta", "Tb"))

    sim, records = apply_by_hand(crit.PlanEntry("TG1", g1, 1, crit.MODE_FULL),
                                 move_tg1_away_and_reboot_its_tiles, doc)
    assert records[0] == ("tg-restarted", {"tg": "TG1", "reason": "no-donor"})
    assert sim.host_of["TG1"].members == list(g1)
    assert all(sim.tiles[m].threads[tid] is sim.initial_states[tid]
               for m in g1 for tid in ("Ta", "Tb"))


def test_vmem_fault_misses_the_entry_of_a_group_migrated_away():
    # TG1-m1 starts round 0 at t=1500, and C0 writes its checksums at
    # t=1524. The entry (Ta, 0) that C0 wrote for G1's round 0 at t=24 is
    # no part of that round, so a flip of it at t=1510 changes nothing.
    entry = crit.PlanEntry("TG1", ("C0", "C1", "C3"), 1, crit.MODE_FULL)
    doc = make_doc(horizon=4000, faults={"explicit": [
        {"at": 1510, "kind": "transient-validation-memory", "tile": "C0",
         "thread": "Ta", "mask": 1}]})
    sim, records = apply_by_hand(entry, doc=doc, until=4000)
    fault = sim.trace.of_kind("fault")[0].payload
    assert (fault["disposition"], fault.get("reason")) == ("absorbed", "stale-entry")
    summary = compute_metrics(sim.trace.records)
    assert summary.undetected == 0 and summary.identity_holds()


def two_group_doc(**over):
    """C2 serves G1, which runs TG1 (Ta, Tb) every 1000 us, and G2, which
    runs TG2 (Tc) every 1500 us."""
    tc = {**make_doc()["threads"][0], "id": "Tc", "checkpoint_period": 1500}
    return make_doc(
        tiles=[{"id": f"C{i}"} for i in range(5)] + [{"id": "C5", "spare": True}],
        threads=[*make_doc()["threads"], tc],
        thread_groups=[{"id": "TG1", "threads": ["Ta", "Tb"]},
                       {"id": "TG2", "threads": ["Tc"]}],
        tile_groups=[{"id": "G1", "members": ["C0", "C1", "C2"], "thread_groups": ["TG1"]},
                     {"id": "G2", "members": ["C2", "C3", "C4"], "thread_groups": ["TG2"]}],
        **over)


@pytest.mark.parametrize("deactivate", [False, True], ids=["host-has-no-round", "deactivated"])
def test_vmem_fault_reads_only_the_round_of_its_threads_host(deactivate):
    # G2's round 2 stays open from C2's write at t=3036 to its deadline at
    # t=3174, since a SEFI blocks C4, while G1's round 3 ends at t=3096. At
    # t=3100 a flip of C2's Tc entry lands in G2's round; a flip of its Ta
    # entry is stale, for Ta's host G1 has no open round, or, once Stage 3
    # has deactivated TG1, Ta has no host at all.
    vmem = {"kind": "transient-validation-memory", "at": 3100, "tile": "C2", "mask": 1}
    doc = two_group_doc(horizon=4000, faults={"explicit": [
        {"at": 2900, "kind": "sefi-tile", "tile": "C4", "duration": 300},
        {**vmem, "thread": "Ta"}, {**vmem, "thread": "Tc"}]})
    sim = Simulation(parse_scenario(doc))
    if deactivate:
        sim.queue.schedule(2000, deactivate_tg1)
    trace = sim.run()
    assert ("G1" in sim.groups) != deactivate
    assert [(r.payload["disposition"], r.payload.get("reason", r.payload.get("index")))
            for r in trace.of_kind("fault")[1:]] == [("absorbed", "stale-entry"),
                                                    ("applied", 2)]


def test_vmem_fault_lands_in_the_open_round_of_a_host_its_thread_left(monkeypatch):
    # G1 runs TG1 (Ta) and TG2 (Tb). A SEFI on C2 keeps G1's round 3 open
    # from t=3072 to its deadline at t=3172, and C0 writes its Ta and Tb
    # entries at t=3096. At t=3100 Stage 3 moves TG1 to the spares; the open
    # round still compares Ta, so a flip of C0's Ta entry at t=3110 lands in it.
    doc = make_doc(horizon=4000,
                   tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
                          *[{"id": f"C{i}", "spare": True} for i in (3, 4, 5)]],
                   thread_groups=[{"id": "TG1", "threads": ["Ta"]},
                                  {"id": "TG2", "threads": ["Tb"]}],
                   faults={"explicit": [
                       {"at": 2900, "kind": "sefi-tile", "tile": "C2", "duration": 300},
                       {"at": 3110, "kind": "transient-validation-memory", "tile": "C0",
                        "thread": "Ta", "mask": 1}]})
    doc["tile_groups"][0]["thread_groups"] = ["TG1", "TG2"]
    entry = crit.PlanEntry("TG1", ("C3", "C4", "C5"), 1, crit.MODE_FULL)
    monkeypatch.setattr(crit, "reallocate", lambda *args, **kwargs: {"TG1": entry})
    sim = Simulation(parse_scenario(doc))
    sim.queue.schedule(3100, lambda sim: sim.stage3_reallocate("by-hand"))
    trace = sim.run()
    assert [r.payload["group"] for r in trace.of_kind("tg-migrated")] == ["TG1-m1"]
    fault = trace.of_kind("fault")[1].payload
    assert (fault["disposition"], fault.get("index")) == ("applied", 3)
    assert [r.payload["group"] for r in trace.of_kind("fault-detected")
            if r.payload["id"] == 1] == ["G1"]


def test_a_miss_completes_at_the_deadline_its_round_started_with():
    # G1 runs TG1 (Ta, every 1400 us) and TG2 (Tb, every 2800 us), so its
    # deadline is 140 us. Round 1 starts at t=1424, and a SEFI on C2 loses
    # its write at t=1436. At t=1500 a plan moves TG1 to the spares, which
    # raises G1's deadline to 280 us; the round still ends at t=1564.
    ta, tb = make_doc()["threads"]
    doc = make_doc(horizon=2000,
                   tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
                          *[{"id": f"C{i}", "spare": True} for i in (3, 4, 5)]],
                   threads=[{**ta, "checkpoint_period": 1400},
                            {**tb, "checkpoint_period": 2800}],
                   thread_groups=[{"id": "TG1", "threads": ["Ta"]},
                                  {"id": "TG2", "threads": ["Tb"]}],
                   faults={"explicit": [
                       {"at": 1430, "kind": "sefi-tile", "tile": "C2", "duration": 300}]})
    doc["tile_groups"][0]["thread_groups"] = ["TG1", "TG2"]
    entry = crit.PlanEntry("TG1", ("C3", "C4", "C5"), 1, crit.MODE_FULL)
    sim, _ = apply_by_hand(entry, doc=doc, until=2000)
    assert sim.groups["G1"].comparison_deadline == 280
    reports = [(r.at, r.payload["verdicts"], r.payload["completed_at"])
               for r in sim.trace.of_kind("checkpoint-report") if r.payload["group"] == "G1"]
    assert reports[-2:] == [(1564, {"C1": "agree", "C2": "deadline-miss"}, 1564),
                            (1564, {"C0": "agree", "C2": "deadline-miss"}, 1564)]


# -- output voting ---------------------------------------------------------------

def output_doc(voting):
    doc = make_doc(features={"output_voting": voting, "ecc": True},
                   faults={"explicit": [transient(1500, "C2")]})
    doc["threads"][0]["emits_output"] = True
    return doc


def test_output_divergence_suppressed_by_voting():
    trace, summary = run_doc(output_doc(voting=True))
    assert summary.propagation_window_count >= 1
    assert summary.outputs_escaped == 0
    votes = trace.of_kind("output-vote")
    assert votes and votes[0].payload["divergent"] == ["C2"]
    assert votes[0].payload["suppressed"]


def test_no_output_vote_for_a_thread_that_emits_none():
    # the corrupted replica diverges, but a thread with emits_output off
    # has no output to vote on
    doc = output_doc(voting=True)
    doc["threads"][0]["emits_output"] = False
    trace, summary = run_doc(doc)
    assert summary.detected == 1
    assert trace.of_kind("output-vote") == []
    assert summary.propagation_window_count == summary.outputs_escaped == 0


def test_output_divergence_escapes_without_voting():
    trace, summary = run_doc(output_doc(voting=False))
    assert summary.outputs_escaped >= 1
    assert summary.propagation_window_count == summary.outputs_escaped


# -- permanent faults and repair ---------------------------------------------------

def test_permanent_fault_detected_every_checkpoint_until_repair():
    doc = make_doc(
        horizon=20000,
        supervisor={"transient_threshold": 2, "defunct_threshold": 10},
        faults={"explicit": [
            {"at": 1500, "kind": "permanent-cell", "partition": "p2", "cell": 10}]},
    )
    trace, summary = run_doc(doc)
    assert summary.repaired == 1
    assert any(r.kind == "repair-success" for r in trace.records)
    # repaired tile rejoins: the last verdicts run at full strength
    last = trace.of_kind("verdict")[-1]
    assert last.payload["result"] == "all-agree"
    assert last.payload["participants"] == 3


def test_latent_cell_damage_absorbed():
    doc = make_doc(faults={"explicit": [
        {"at": 1500, "kind": "permanent-cell", "partition": "p2", "cell": 63}]})
    trace, summary = run_doc(doc)  # cell 63 is outside variant 0's footprint
    assert summary.absorbed == 1
    assert summary.detected == 0


def test_ecc_absorbs_memory_faults():
    doc = make_doc(faults={"explicit": [
        {"at": 1500, "kind": "memory-word", "tile": "C0", "thread": "Ta", "word": 0}]})
    trace, summary = run_doc(doc)
    rec = trace.of_kind("fault")[0]
    assert rec.payload["disposition"] == "absorbed"
    assert rec.payload["reason"] == "ecc"


def test_memory_fault_corrupts_without_ecc():
    doc = make_doc(features={"output_voting": False, "ecc": False},
                   faults={"explicit": [
                       {"at": 1500, "kind": "memory-word", "tile": "C0",
                        "thread": "Ta", "word": 0, "mask": 7}]})
    trace, summary = run_doc(doc)
    assert summary.detected == 1


# -- determinism ------------------------------------------------------------------

def test_replay_determinism_bit_identical():
    doc = make_doc(faults={"explicit": [transient(1500, "C1")]})
    a, ma = run_doc(doc)
    b, mb = run_doc(doc)
    assert a.to_jsonl() == b.to_jsonl()
    assert ma.to_json() == mb.to_json()


def test_different_seeds_differ_under_random_faults():
    doc = make_doc(faults={"rates": {"transient-state": 1e-4}})
    doc["horizon"] = 50_000
    a, _ = run_doc(dict(doc, seed=1))
    b, _ = run_doc(dict(doc, seed=2))
    assert a.to_jsonl() != b.to_jsonl()


# -- memory -----------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    *(pytest.param(name, id=name) for name in BUNDLED),
    # SEFIs, fabric repair, and a tile shared by two groups
    pytest.param(chaos_doc(0), id="chaos-0"),
    pytest.param(shared_tile_doc(100, 2), id="shared-tile-100-2"),
    # arbitration over 14 tiles, lost reports, a group's threads checked in
    # another order than the scenario lists them, and Stage 3 deactivating
    # a thread group
    pytest.param(wide_doc(0), id="wide-0"),
    pytest.param(lossy_doc(wide_doc(1), 0.3), id="lossy-wide-1-0.3"),
    pytest.param(reordered_doc(0), id="reordered-0"),
    pytest.param(chaos_doc(196), id="chaos-196"),
])
def test_finished_run_freed_without_cyclic_gc(source):
    # a run in a reference cycle (say, a queue entry or a table holding a
    # bound method) lives on until a full collection, which raises the peak
    # memory of every sweep
    scenario = load_scenario(source) if isinstance(source, str) else parse_scenario(source)
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(scenario)
        sim.run()
        alive = weakref.ref(sim)
        del sim
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def raise_in_handler(sim):
    raise RuntimeError("handler failed")


@pytest.mark.parametrize("enabled, failing", [(True, False), (False, False), (True, True)],
                         ids=["enabled", "disabled", "handler-raises"])
def test_run_leaves_the_collector_as_it_found_it(enabled, failing):
    # a run pauses the cyclic collector, and only for the run
    sim = Simulation(load_scenario("fig3", ["horizon=20000", "faults={}"]))
    if failing:
        sim.queue.schedule(3000, raise_in_handler)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if failing:
            with pytest.raises(RuntimeError, match="handler failed"):
                sim.run()
        else:
            sim.run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# -- the cost of a fault-free run -------------------------------------------------

class Counted(Simulation):
    """A run that counts the events it dispatches, in all and by handler."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatched = 0
        self.handled = Counter()

    def dispatch(self, ev):
        self.dispatched += 1
        self.handled[ev[2]] += 1
        super().dispatch(ev)


def without_faults(make):
    def scenario():
        doc = make(0)
        doc["faults"] = {}
        return parse_scenario(doc)
    return scenario


def expected_fault_free_counts(sim):
    """The records per kind and the dispatched and scheduled events of a
    fault-free run of `sim`, worked out from its groups' plans, and whether
    some round's checksums are due after the horizon.

    A group starts its first round at 0, and each later one a period after
    the last one's checksums were ready. A round writes a
    checkpoint-start, a verdict and a checkpoint-end, and a
    validation-write and a checkpoint-report per participant. It schedules
    each participant's write, its deadline, a resolve at the write instant
    when that comes before the deadline, the watchdog's re-arming and the
    next round's timer. It dispatches its timer, the writes and its
    resolve, or the deadline when the writes fall on it."""
    groups = list(sim.groups.values())
    idle = len(sim.tiles) - len({m for g in groups for m in g.members})
    records = Counter({"run-start": 1, "run-end": 1, "boot": len(sim.tiles),
                       "tile-boot-checkpoint": idle, "spare-pool-enter": idle,
                       "tg-active": len(sim.thread_groups)})
    dispatched, scheduled = 0, len(groups) + 1   # a timer per group, and the watchdog
    cut = False
    for g in groups:
        at = index = 0
        while at <= sim.horizon:
            ready = g.plan(index)[1]
            cut |= at + ready > sim.horizon
            n = len(g.members)   # every member is a participant
            records.update({"checkpoint-start": 1, "verdict": 1, "checkpoint-end": 1,
                            "validation-write": n, "checkpoint-report": n})
            dispatched += n + 2
            scheduled += n + 3 + (ready < g.comparison_deadline)
            at += ready + g.period
            index += 1
    return +records, dispatched, scheduled, cut


def check_fault_free_counts(scenario):
    """Run `scenario` and check its counts, unless the horizon cuts a
    round: then return None without running it."""
    sim = Counted(scenario)
    records, dispatched, scheduled, cut = expected_fault_free_counts(sim)
    if cut:
        return None
    trace = sim.run()
    assert Counter(r.kind for r in trace.records) == records
    assert sim.dispatched == dispatched
    assert sim.queue._seq == scheduled   # the queue's insertion count
    return sim


@pytest.mark.parametrize("scenario", [
    lambda: load_scenario("fig3", ["horizon=100000", "faults={}"]),
    without_faults(chaos_doc),
    without_faults(wide_doc),
    without_faults(lambda seed: shared_tile_doc(seed, 3)),
    without_faults(reordered_doc),
], ids=["fig3", "chaos", "wide", "shared-tile", "reordered"])
def test_fault_free_counts_follow_from_the_scenario(scenario):
    assert check_fault_free_counts(scenario()) is not None


@st.composite
def fault_free_docs(draw):
    """Fault-free documents of one to three tile groups over a common pool
    of tiles, so that some tiles serve two groups. Each group runs one or
    two thread groups of one or two threads; its first thread sets the base
    period, and the others' periods are at most four times that. The
    checksum costs and the deferral fit the comparison deadline, and some
    groups' checksums are ready exactly at it."""
    tiles = [f"C{i}" for i in range(draw(st.integers(2, 6)))]
    context_switch = draw(st.integers(0, 2))
    threads, thread_groups, tile_groups = [], [], []
    for g in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from([400, 500, 1000, 1200]))
        listed, own = [], []   # the group's thread groups and threads
        for _ in range(draw(st.integers(1, 2))):
            tg = {"id": f"TG{len(thread_groups)}", "threads": []}
            for _ in range(draw(st.integers(1, 2))):
                thread = {"id": f"T{len(threads)}", "criticality": draw(st.integers(1, 9)),
                          "checkpoint_period": draw(st.integers(base, 4 * base)) if own else base,
                          "state_words": draw(st.integers(1, 6)),
                          "work_per_tick": draw(st.integers(1, 120)),
                          "emits_output": draw(st.booleans()),
                          "checksum_cost": draw(st.integers(1, 8))}
                tg["threads"].append(thread["id"])
                threads.append(thread)
                own.append(thread)
            thread_groups.append(tg)
            listed.append(tg["id"])
        spare_time = base // 10 - sum(t["checksum_cost"] + context_switch for t in own)
        own[0]["viable_delay"] = draw(st.one_of(st.just(spare_time),
                                                st.integers(0, spare_time)))
        tile_groups.append({"id": f"G{g}", "thread_groups": listed,
                            "members": draw(st.lists(st.sampled_from(tiles), min_size=2,
                                                     max_size=4, unique=True))})
    return {"name": "count-law", "seed": 0, "horizon": draw(st.integers(1000, 6000)),
            "tiles": [{"id": t} for t in tiles] + [{"id": "S0", "spare": True}],
            "threads": threads, "thread_groups": thread_groups, "tile_groups": tile_groups,
            "costs": {"context_switch": context_switch}}


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(fault_free_docs())
def test_fault_free_count_law_over_generated_topologies(doc):
    assume(check_fault_free_counts(parse_scenario(doc)) is not None)


def test_checksums_ready_at_the_deadline_schedule_no_resolve():
    # make_doc's checksums wait for a 76 us deferral and take two 10 us
    # checksums, each with a 2 us context switch: ready at the comparison
    # deadline of 100 us, which then resolves each round itself
    doc = make_doc(horizon=5000)
    doc["threads"][0]["viable_delay"] = 76
    sim = check_fault_free_counts(parse_scenario(doc))
    group = sim.groups["G1"]
    assert group.plan(0)[1] == group.plan(1)[1] == group.comparison_deadline == 100


# -- every dispatched resolve ends an open round -------------------------------------

RESOLVE_RUNS = {
    "bundled": lambda: [load_scenario(name) for name in ("exhaustion", "fig3", "fig6", "storm")],
    "chaos": lambda: [parse_scenario(chaos_doc(seed)) for seed in [*range(80), 196]],
    "shared-tile": lambda: [parse_scenario(shared_tile_doc(seed, threshold))
                            for threshold, seed in [(3, 63), (3, 22), (3, 107), (3, 152),
                                                    (2, 221), (2, 322), (2, 100), (2, 38)]],
    "wide-group": lambda: [parse_scenario(wide_doc(seed)) for seed in range(4)],
    "reordered": lambda: [parse_scenario(reordered_doc(seed)) for seed in range(2)],
    "signal-loss": lambda: [parse_scenario(lossy_doc(make(seed), 0.3))
                            for make, seeds in ((chaos_doc, range(4)), (wide_doc, range(2)))
                            for seed in seeds],
}


class GraceEnds(Counted):
    """A counted run that keeps, for each grace expiry it dispatches, the
    expiring round and the `checkpoint-end` records that the expiry wrote."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grace_ends = []

    def dispatch(self, ev):
        written = len(self.trace.records)
        super().dispatch(ev)
        if ev[2] is Simulation._on_grace_expiry:
            ctx, = ev[3]
            self.grace_ends.append((
                (ctx.group.group_id, ctx.index, "recovered"),
                [(r.payload["group"], r.payload["index"], r.payload["result"])
                 for r in self.trace.records[written:] if r.kind == "checkpoint-end"]))


@pytest.mark.parametrize("family", sorted(RESOLVE_RUNS))
def test_every_resolve_dispatch_writes_a_verdict(family):
    # whatever ends a round early cancels its pending resolve or grace
    # expiry, so neither fires for a round that is over. The runs are the
    # chaos soak's and the pinned ones. In shared-tile (3, 63) a boot
    # restarts a round before its deadline, and in chaos seed 32 halts
    # abort two rounds.
    graced = 0
    for scenario in RESOLVE_RUNS[family]():
        sim = GraceEnds(scenario)
        trace = sim.run()
        assert sim.handled[Simulation._resolve_checkpoint] == len(trace.of_kind("verdict"))
        for own, ends in sim.grace_ends:
            assert ends == [own]
        graced += len(sim.grace_ends)
    assert graced > 0


@pytest.mark.parametrize("halt, restart_at", [
    (Simulation.full_reconfigure, 7600), (Simulation._on_watchdog_expiry, 2600),
], ids=["full-reconfigure", "watchdog-reset"])
def test_a_halt_in_grace_cancels_the_grace_expiry(halt, restart_at):
    # C2's flip makes round 2 faulty at t=2072, and its grace period would
    # end at t=2132. The halt at t=2100 cancels the expiry, the group's one
    # pending entry, so round 2 never ends and no round starts while the
    # tiles are down. The boot after the halt starts round 3.
    sim = Simulation(parse_scenario(make_doc(faults={"explicit": [transient(1500, "C2")]})))
    sim.queue.schedule(2100, halt)
    trace = sim.run()
    verdict = trace.of_kind("verdict")[2]
    assert (verdict.at, verdict.payload["index"], verdict.payload["result"]) == (2072, 2, "faulty")
    assert 2 not in [r.payload["index"] for r in trace.of_kind("checkpoint-end")]
    start = next(r for r in trace.of_kind("checkpoint-start") if r.at >= 2100)
    assert (start.at, start.payload["index"], start.payload["trigger"]) == (restart_at, 3, "boot")


def test_a_boot_restart_during_an_open_round_cancels_its_deadline():
    # C2 reboots at t=530 and is back at t=1030, inside round 1, which
    # started at t=1024 without it and would resolve at t=1048. The boot
    # starts round 2 at once, and round 1's deadline at t=1124 never fires.
    sim = Counted(parse_scenario(make_doc(horizon=3000)))
    pending = []
    sim.queue.schedule(530, reboot_c2)
    sim.queue.schedule(1029, lambda sim: pending.append((sim.ctxs["G1"], sim.timers["G1"])))
    trace = sim.run()
    (ctx, deadline), = pending
    assert (ctx.index, ctx.resolved, deadline[0]) == (1, False, 1124)
    assert deadline[2] is None
    start = trace.of_kind("checkpoint-start")[2]
    assert (start.at, start.payload["index"], start.payload["trigger"]) == (1030, 2, "boot")
    assert 1 not in [r.payload["index"] for r in trace.of_kind("verdict")]
    assert sim.handled[Simulation._resolve_checkpoint] == len(trace.of_kind("verdict"))
