"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Tolerances are fixed here, not tuned elsewhere.
"""

import dataclasses
import json
import time
from importlib import resources

import pytest

from tilesim import faults as flt
from tilesim import simulation
from tilesim.criticality import reallocate
from tilesim.engine import RandomStream
from tilesim.runner import replay_check, run_simulation, sweep
from tilesim.scenario import load_scenario, parse_scenario
from tilesim.simulation import Simulation

from test_criticality import (
    POLICY, brute_force_high_count, degraded_instance, plan_high_count,
    priority_dominance_violations,
)


def _ok(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def bundled_doc(name):
    return json.loads(
        (resources.files("tilesim") / "scenarios" / f"{name}.scenario").read_text())


# -- 1: the quad-core recovery example ----------------------------------------


def test_criterion_1_recovery_golden_trace():
    start = time.perf_counter()
    traces = []
    for _ in range(3):
        trace, summary = run_simulation(load_scenario("fig3"))
        traces.append(trace.to_jsonl())
    elapsed = time.perf_counter() - start
    assert traces[0] == traces[1] == traces[2], "trace not byte-identical"
    assert elapsed < 1.0, f"three runs took {elapsed:.2f}s"

    trace, summary = run_simulation(load_scenario("fig3"))
    records = trace.records

    # fault lands on tile 2 during the second lockstep cycle
    fault = next(r for r in records if r.kind == "fault")
    assert fault.payload["target"].startswith("C2/")
    starts = {r.payload["index"]: r.at for r in records if r.kind == "checkpoint-start"}
    assert starts[1] < fault.at < starts[2]

    # both healthy siblings report disagreement with tile 2
    reports = [r for r in records
               if r.kind == "checkpoint-report" and r.payload["index"] == 2]
    disagree = {r.payload["tile"] for r in reports
                if r.payload["verdicts"].get("C2") == "disagree"}
    assert disagree == {"C0", "C1"}

    # verdict isolates tile 2; spare tile 3 is activated and updated
    verdict = next(r for r in records if r.kind == "verdict"
                   and r.payload["result"] == "faulty")
    assert verdict.payload["faulty"] == ["C2"]
    activation = next(r for r in records if r.kind == "command"
                      and r.payload["command"] == "activate-with-mapping")
    assert activation.payload["tile"] == "C3"
    update = next(r for r in records if r.kind == "update-success")
    assert update.payload["tile"] == "C3"
    assert any(r.kind == "state-propagation" for r in records)

    # the very next checkpoint agrees at full strength
    after = next(r for r in records if r.kind == "verdict"
                 and r.payload["index"] == 3)
    assert after.payload["result"] == "all-agree"
    assert after.payload["participants"] == 3
    assert summary.replaced == 1 and summary.undetected == 0
    _ok(1, "fig3 golden trace")


# -- 2: the six-tile migration example -----------------------------------------


def test_criterion_2_migration_golden_trace():
    start = time.perf_counter()
    trace, summary = run_simulation(load_scenario("fig6"))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"run took {elapsed:.2f}s"

    plan = next(r for r in trace.records if r.kind == "stage3-plan")
    entries = {e["tg"]: e for e in plan.payload["entries"]}
    assert set(entries["TG-c"]["tiles"]) == {"C2", "C3", "C4"}
    assert entries["TG-c"]["mode"] == "full"
    assert entries["TG-d"]["mode"] == "detect-only"
    degraded = next(r for r in trace.records if r.kind == "tg-degraded"
                    and r.payload["tg"] == "TG-d")
    assert degraded.payload["mode"] == "detect-only"
    # the migration adjusts tile 2's checkpoint timer
    adjusted = [r for r in trace.records if r.kind == "timer-adjusted"
                and r.payload["tile"] == "C2"]
    assert adjusted and adjusted[-1].at == plan.at
    # the new group reaches agreement after migration
    final = [r for r in trace.records if r.kind == "verdict"
             and r.payload["group"].startswith("TG-c-")]
    assert final and all(r.payload["result"] == "all-agree" for r in final)
    _ok(2, "fig6 migration plan")


# -- 3: exhaustive single-fault sweep -------------------------------------------


def sweep_doc():
    return {
        "name": "sweep3", "seed": 5, "horizon": 6000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"},
                  {"id": "C3", "spare": True}],
        "threads": [
            {"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
             "state_words": 6, "work_per_tick": 100,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
            {"id": "Tb", "criticality": 5, "checkpoint_period": 1000,
             "state_words": 6, "work_per_tick": 100,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
        ],
        "thread_groups": [{"id": "TG1", "threads": ["Ta", "Tb"]}],
        "tile_groups": [{"id": "G1", "members": ["C0", "C1", "C2"],
                         "thread_groups": ["TG1"]}],
        "supervisor": {"transient_threshold": 3, "defunct_threshold": 10},
    }


def test_criterion_3_single_fault_enumeration():
    start = time.perf_counter()
    words = {"Ta": 6, "Tb": 6}
    phases = (1105, 1340, 1500, 1777, 2030)
    total = undetected = 0
    for tile in ("C0", "C1", "C2"):
        for thread in ("Ta", "Tb"):
            for word in range(words[thread]):
                for at in phases:
                    doc = sweep_doc()
                    doc["faults"] = {"explicit": [{
                        "at": at, "kind": "transient-state", "tile": tile,
                        "thread": thread, "word": word, "mask": 0x10001}]}
                    trace, summary = run_simulation(parse_scenario(doc))
                    total += 1
                    undetected += summary.undetected
                    verdicts = [r for r in trace.records if r.kind == "verdict"]
                    starts = {r.payload["index"]: r.at for r in trace.records
                              if r.kind == "checkpoint-start"}
                    next_idx = min(i for i, t0 in starts.items() if t0 > at)
                    faulty = next(r for r in verdicts
                                  if r.payload["result"] == "faulty")
                    # detected at the next scheduled checkpoint
                    assert faulty.payload["index"] == next_idx, (tile, thread, word, at)
                    assert faulty.payload["faulty"] == [tile]
                    # corrected within two checkpoints
                    healed = next(r for r in verdicts
                                  if r.payload["index"] == next_idx + 1)
                    assert healed.payload["result"] == "all-agree"
                    assert healed.payload["participants"] == 3
                    assert summary.corrected == 1
    elapsed = time.perf_counter() - start
    assert undetected == 0
    assert total == 3 * 2 * 6 * len(phases)
    assert elapsed < 60, f"enumeration took {elapsed:.1f}s"
    _ok(3, f"single-fault sweep ({total} runs, {elapsed:.1f}s)")


# -- 4: masking Monte Carlo -------------------------------------------------------


def test_criterion_4_masking_monte_carlo():
    base = parse_scenario({
        "name": "mc", "seed": 0, "horizon": 3500,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"}],
        "threads": [{"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
                     "state_words": 4, "work_per_tick": 200,
                     "checksum_cost": 10, "sync_cost": 15, "update_cost": 15}],
        "thread_groups": [{"id": "TG1", "threads": ["Ta"]}],
        "tile_groups": [{"id": "G1", "members": ["C0", "C1", "C2"],
                         "thread_groups": ["TG1"]}],
        "supervisor": {"transient_threshold": 3, "defunct_threshold": 10},
    })
    tiles = ("C0", "C1", "C2")
    trials = 100_000
    start = time.perf_counter()
    divergences = 0
    detected = 0
    for i in range(trials):
        rng = RandomStream(i, "mc-trial")
        ev = flt.FaultEvent(
            at=rng.uniform_range(30, 2900),
            kind=flt.TRANSIENT_STATE,
            tile=tiles[rng.uniform64() % 3],
            thread="Ta",
            word=rng.uniform_range(0, 3),
            masks=(rng.uniform64() | 1,),
        )
        scenario = dataclasses.replace(
            base, seed=i, profile=flt.FaultProfile(explicit=[ev]))
        sim = Simulation(scenario)
        sim.run()
        divergences += sim.oracle_divergences
        detected += bool(sim.ledger.outcome or sim.ledger.detected_at)
    elapsed = time.perf_counter() - start
    assert divergences == 0, f"{divergences} undetected divergences"
    assert detected == trials  # every injected fault was caught
    assert elapsed < 300, f"Monte Carlo took {elapsed:.0f}s"
    _ok(4, f"masking Monte Carlo ({trials} trials, {elapsed:.0f}s)")


# -- 5: checkpoint overhead law ----------------------------------------------------


def test_criterion_5_overhead_law():
    doc = bundled_doc("fig3")
    doc["faults"] = {}
    doc["horizon"] = 1_000_000
    periods = [1000, 2000, 4000, 8000]
    rows = sweep(doc, {"threads[*].checkpoint_period": periods}, seeds=[42])
    t_ckpt = 2 * (10 + 2)   # two threads, checksum cost plus context switch
    measured = []
    for row, period in zip(rows, periods):
        analytic = t_ckpt / (t_ckpt + period)
        assert abs(row["overhead_mean"] - analytic) / analytic < 0.01, period
        measured.append(row["overhead_mean"])
    assert all(a > b for a, b in zip(measured, measured[1:])), "not monotone"
    _ok(5, "overhead law within 1%, monotone")


# -- 6: fabric repair liveness and escalation ---------------------------------------


def test_criterion_6_stage2_liveness_and_escalation(monkeypatch):
    # a) the damaged tile is repaired with a non-overlapping variant and
    #    returns to the spare pool
    trace, summary = run_simulation(load_scenario("exhaustion"))
    success = next(r for r in trace.records if r.kind == "repair-success")
    assert success.payload["variant"] == 1   # variant 0 overlaps cell 10
    pool = [r for r in trace.records if r.kind == "spare-pool-enter"
            and r.payload["tile"] == "C2"]
    assert pool and pool[0].at > success.at
    assert summary.repaired == 1

    # b) with the damage on the anchor cell every variant overlaps:
    #    escalation to the criticality manager, whose plan, as the run made
    #    it, honors priority dominance
    calls = []

    def recorded(tiles, requests, policy, context_switch=2):
        plan = reallocate(tiles, requests, policy, context_switch)
        calls.append((tiles, requests, policy, plan))
        return plan

    monkeypatch.setattr(simulation.crit, "reallocate", recorded)
    trace = Simulation(load_scenario("exhaustion", ["faults.explicit[0].cell=0"])).run()
    assert any(r.kind == "repair-exhausted" for r in trace.records)
    [(tiles, requests, policy, plan)] = calls
    assert priority_dominance_violations(tiles, requests, plan, policy) == []
    plan_rec = next(r for r in trace.records if r.kind == "stage3-plan")
    assert plan_rec.payload["entries"] == [
        {"tg": e.tg_id, "tiles": list(e.tiles), "mode": e.mode,
         "period_factor": e.period_factor, "levers": list(e.levers)}
        for e in plan.values()]
    assert plan["TG-x"].mode == "detect-only"
    _ok(6, "stage 2 liveness and stage 3 escalation")


# -- 7: greedy reallocation versus exhaustive oracle -----------------------------------


def test_criterion_7_greedy_matches_oracle():
    start = time.perf_counter()
    rng = RandomStream(777, "acceptance-alloc")
    checked = 0
    for _ in range(400):
        tiles, reqs = degraded_instance(rng, POLICY)
        if not reqs:
            continue
        plan = reallocate(tiles, reqs, POLICY)
        assert plan_high_count(plan, reqs, POLICY) \
            == brute_force_high_count(tiles, reqs, POLICY)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 250
    assert elapsed < 60
    _ok(7, f"greedy matches oracle on {checked} instances")


# -- 8: determinism and accounting --------------------------------------------------


def test_criterion_8_replay_and_accounting():
    for name in ("fig3", "fig6", "exhaustion", "storm"):
        assert replay_check(name), f"{name} not byte-identical"
        _, summary = run_simulation(load_scenario(name))
        assert summary.identity_holds(), f"{name} accounting identity"
    # identity also holds across a seed batch of the stochastic scenario
    for seed in range(10):
        _, summary = run_simulation(load_scenario("storm", [f"seed={seed}"]))
        assert summary.identity_holds(), f"storm seed {seed}"
    _ok(8, "replay determinism and accounting identity")
