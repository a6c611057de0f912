"""Scripted multi-fault scenarios exercising the repair and reset paths."""

from tilesim.runner import run_simulation, sweep
from tilesim.scenario import parse_scenario


def base_doc(**over):
    doc = {
        "name": "esc", "seed": 1, "horizon": 14000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"}],
        "threads": [{"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
                     "state_words": 4, "work_per_tick": 100,
                     "checksum_cost": 10, "sync_cost": 15, "update_cost": 15}],
        "thread_groups": [{"id": "TG1", "threads": ["Ta"]}],
        "tile_groups": [{"id": "G1", "members": ["C0", "C1", "C2"],
                         "thread_groups": ["TG1"]}],
        "costs": {"context_switch": 2, "boot_time": 500},
    }
    doc.update(over)
    return doc


def test_shared_sefi_triggers_full_reconfiguration():
    doc = base_doc(faults={"explicit": [
        {"at": 1500, "kind": "sefi-shared", "duration": 3000}]})
    trace, summary = run_simulation(parse_scenario(doc))
    kinds = [r.kind for r in trace.records]
    assert "shared-fault-suspected" in kinds
    assert "full-reconfig-start" in kinds
    done = next(r for r in trace.records if r.kind == "full-reconfig-done")
    start = next(r for r in trace.records if r.kind == "full-reconfig-start")
    assert done.at - start.at == 5000
    # all tiles reboot and the group recovers
    boots = [r for r in trace.records if r.kind == "boot" and r.at > done.at]
    assert len(boots) == 3
    last = [r for r in trace.records if r.kind == "verdict"][-1]
    assert last.payload["result"] == "all-agree"
    assert summary.repaired == 1
    assert not summary.loss_of_mission


def test_watchdog_resets_totally_silent_system():
    doc = base_doc(faults={"explicit": [
        {"at": 1500, "kind": "sefi-tile", "tile": t, "duration": 9000}
        for t in ("C0", "C1", "C2")]})
    trace, summary = run_simulation(parse_scenario(doc))
    silent = next(r for r in trace.records if r.kind == "verdict"
                  and r.payload["result"] == "silent")
    reset = next(r for r in trace.records if r.kind == "watchdog-reset")
    # default watchdog period: 4x the base period, armed at the last kick
    last_kick = max(r.at for r in trace.records
                    if r.kind == "verdict" and r.at < silent.at)
    assert reset.at == last_kick + 4000
    # the reset clears the interface blocks and the system comes back
    last = [r for r in trace.records if r.kind == "verdict"][-1]
    assert last.payload["result"] == "all-agree"


def test_watchdog_never_fires_with_healthy_traffic():
    trace, _ = run_simulation(parse_scenario(base_doc()))
    assert not [r for r in trace.records if r.kind == "watchdog-reset"]


def test_donor_sefi_mid_grace_fails_update():
    # first fault corrupts C2; the supervisor picks C0 as donor; a second
    # fault blocks C0 before its synchronization callback lands
    doc = base_doc(
        tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
               {"id": "C3", "spare": True}],
        supervisor={"transient_threshold": 3, "defunct_threshold": 10},
        faults={"explicit": [
            {"at": 1500, "kind": "transient-state", "tile": "C2",
             "thread": "Ta", "word": 0, "mask": 255},
            {"at": 2040, "kind": "sefi-tile", "tile": "C0", "duration": 400},
        ]},
    )
    trace, summary = run_simulation(parse_scenario(doc))
    failed = next(r for r in trace.records if r.kind == "update-failed")
    assert failed.payload["tile"] == "C2"
    assert failed.payload["reason"] == "donor-snapshots-missing"
    assert any(r.kind == "state-propagation-lost" for r in trace.records)
    # the divergence persists, is re-detected, and eventually resolves
    faulty = [r for r in trace.records if r.kind == "verdict"
              and r.payload["result"] == "faulty"]
    assert len(faulty) >= 2
    assert summary.undetected == 0
    last = [r for r in trace.records if r.kind == "verdict"][-1]
    assert last.payload["result"] == "all-agree"


def test_supervisor_triggered_extra_checkpoint_keeps_indices_sequential():
    # a repaired tile rejoins through a supervisor-triggered checkpoint;
    # indices stay strictly sequential per group
    doc = base_doc(
        horizon=20000,
        supervisor={"transient_threshold": 2, "defunct_threshold": 10},
        faults={"explicit": [
            {"at": 1500, "kind": "permanent-cell", "partition": "p2", "cell": 10}]},
    )
    trace, _ = run_simulation(parse_scenario(doc))
    triggers = {r.payload["trigger"] for r in trace.records
                if r.kind == "checkpoint-start"}
    assert "supervisor" in triggers
    indices = [r.payload["index"] for r in trace.records
               if r.kind == "checkpoint-start" and r.payload["group"] == "G1"]
    assert indices == list(range(len(indices)))


def test_partial_reconfiguration_isolated_from_other_tiles():
    # while one partition is being rewritten, the surviving tiles keep
    # lockstepping undisturbed: no commands, reboots, or disagreement
    doc = base_doc(
        horizon=20000,
        supervisor={"transient_threshold": 2, "defunct_threshold": 10},
        faults={"explicit": [
            {"at": 1500, "kind": "permanent-cell", "partition": "p2", "cell": 10}]},
    )
    trace, _ = run_simulation(parse_scenario(doc))
    start = next(r for r in trace.records if r.kind == "repair-start").at
    end = next(r for r in trace.records if r.kind == "repair-success").at
    window = [r for r in trace.records if start < r.at < end]
    others = {"C0", "C1"}
    assert all(r.payload["result"] == "all-agree"
               for r in window if r.kind == "verdict")
    touched = {r.payload.get("tile") for r in window
               if r.kind in ("command", "boot", "update-success", "update-failed")}
    assert not touched & others


def test_repair_by_relocation_when_all_variants_overlap():
    # anchor-cell damage defeats every variant of the home partition, but a
    # free partition exists: the tile is rebound there and repaired
    doc = base_doc(
        horizon=20000,
        supervisor={"transient_threshold": 2, "defunct_threshold": 10},
        fabric={"extra_partitions": 1},
        faults={"explicit": [
            {"at": 1500, "kind": "permanent-cell", "partition": "p2", "cell": 0}]},
    )
    trace, summary = run_simulation(parse_scenario(doc))
    relocate = next(r for r in trace.records if r.kind == "repair-relocate")
    assert relocate.payload["source"] == "p2"
    assert relocate.payload["target"] == "free0"
    success = next(r for r in trace.records if r.kind == "repair-success")
    assert success.payload["partition"] == "free0"
    assert summary.repaired == 1
    # the repaired tile rejoins and the group closes back to full strength
    last = [r for r in trace.records if r.kind == "verdict"][-1]
    assert last.payload["result"] == "all-agree"
    assert last.payload["participants"] == 3


def test_stage2_liveness_bound():
    # a repairable tile returns to the pool within
    # variants x reconfig_duration + boot time of the repair starting
    doc = base_doc(
        horizon=20000,
        supervisor={"transient_threshold": 2, "defunct_threshold": 10},
        faults={"explicit": [
            {"at": 1500, "kind": "permanent-cell", "partition": "p2", "cell": 10}]},
    )
    trace, _ = run_simulation(parse_scenario(doc))
    started = next(r for r in trace.records if r.kind == "repair-start").at
    pooled = next(r for r in trace.records if r.kind == "spare-pool-enter"
                  and r.payload["tile"] == "C2").at
    assert pooled - started <= 3 * 1000 + 500


def test_every_generated_fault_is_traced():
    # conservation: nothing is silently lost between generation and the run
    doc = base_doc(
        horizon=50000,
        faults={"rates": {"transient-state": 2e-4, "sefi-tile": 2e-5,
                          "transient-validation-memory": 5e-5}},
    )
    from tilesim.simulation import Simulation
    sim = Simulation(parse_scenario(doc))
    trace = sim.run()
    traced = {r.payload["id"] for r in trace.records if r.kind == "fault"}
    assert traced == set(sim.ledger.events)
    assert len(traced) > 0


def test_transient_only_runs_add_no_fabric_damage():
    doc = base_doc(
        horizon=50000,
        faults={"rates": {"transient-state": 2e-4}},
    )
    from tilesim.simulation import Simulation
    sim = Simulation(parse_scenario(doc))
    sim.run()
    assert sim.fabric.damage == {}


def test_replacing_a_shared_tile_detaches_it_from_every_group():
    # C2 serves two tile groups; replacing it in one must pull its replicas
    # from the other too, and the spare pool refills the hole afterwards
    doc = {
        "name": "shared-tile", "seed": 3, "horizon": 12000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
                  {"id": "C3"}, {"id": "C4"}, {"id": "C5", "spare": True}],
        "threads": [
            {"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
             "state_words": 4, "work_per_tick": 100,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
            {"id": "Tb", "criticality": 5, "checkpoint_period": 1000,
             "state_words": 4, "work_per_tick": 100,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
        ],
        "thread_groups": [{"id": "TG-a", "threads": ["Ta"]},
                          {"id": "TG-b", "threads": ["Tb"]}],
        "tile_groups": [
            {"id": "G1", "members": ["C0", "C1", "C2"], "thread_groups": ["TG-a"]},
            {"id": "G2", "members": ["C2", "C3", "C4"], "thread_groups": ["TG-b"]},
        ],
        "supervisor": {"transient_threshold": 1, "defunct_threshold": 10},
        "faults": {"explicit": [
            {"at": 1500, "kind": "transient-state", "tile": "C2",
             "thread": "Ta", "word": 0, "mask": 255}]},
    }
    from tilesim.simulation import Simulation
    sim = Simulation(parse_scenario(doc))
    trace = sim.run()
    # replaced in G1 by the spare, detached from G2
    assert sim.groups["G1"].members == ["C0", "C1", "C5"]
    # after its reboot the pool refills G2's hole with C2 itself
    restored = next(r for r in trace.records if r.kind == "group-restored")
    assert restored.payload == {"group": "G2", "tile": "C2"}
    assert sim.groups["G2"].members == ["C3", "C4", "C2"]
    last_g2 = [r for r in trace.records if r.kind == "verdict"
               and r.payload["group"] == "G2"][-1]
    assert last_g2.payload["result"] == "all-agree"
    assert last_g2.payload["participants"] == 3


def test_total_signal_loss_ends_in_watchdog_reset():
    # with every agreement signal dropped the supervisor sees only silence
    doc = base_doc(features={"output_voting": False, "ecc": True,
                             "signal_loss_prob": 1.0})
    trace, _ = run_simulation(parse_scenario(doc))
    assert any(r.kind == "signal-lost" for r in trace.records)
    assert any(r.kind == "watchdog-reset" for r in trace.records)
    assert all(r.payload["result"] == "silent"
               for r in trace.records if r.kind == "verdict")


def test_partial_signal_loss_still_recovers():
    doc = base_doc(
        horizon=30000,
        tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
               {"id": "C3", "spare": True}],
        features={"output_voting": False, "ecc": True, "signal_loss_prob": 0.1},
        faults={"explicit": [
            {"at": 1500, "kind": "transient-state", "tile": "C1",
             "thread": "Ta", "word": 0, "mask": 255}]},
    )
    trace, summary = run_simulation(parse_scenario(doc))
    # lost signals earn healthy tiles spurious blame (the studied effect),
    # but the injected fault is still caught and the system stays up
    assert summary.identity_holds()
    assert summary.undetected == 0
    assert not summary.loss_of_mission
    verdicts = [r.payload["result"] for r in trace.records if r.kind == "verdict"]
    assert verdicts.count("all-agree") > len(verdicts) // 2


def test_recovery_latency_grows_with_update_cost():
    # the grace window defaults to twice the summed update cost, so heavier
    # state transfer must not shorten recovery
    doc = base_doc(
        tiles=[{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
               {"id": "C3", "spare": True}],
        faults={"explicit": [
            {"at": 1500, "kind": "transient-state", "tile": "C1",
             "thread": "Ta", "word": 0, "mask": 255}]},
    )
    rows = sweep(doc, {"threads[*].update_cost": [15, 60, 240]}, seeds=[1])
    latencies = [row["recovery_latency_mean"] for row in rows]
    assert all(latencies)
    assert latencies == sorted(latencies)
