import io
import json

import pytest

from tilesim.metrics import compute_metrics
from tilesim.runner import run_simulation
from tilesim.scenario import load_scenario, parse_scenario
from tilesim.trace import Trace, read_jsonl
from trace_corpus import BUNDLED, chaos_doc, wide_doc


def storm_run():
    return run_simulation(load_scenario("storm"))


def test_metrics_recomputable_from_serialized_trace():
    trace, emitted = storm_run()
    roundtrip = read_jsonl(io.StringIO(trace.to_jsonl()))
    recomputed = compute_metrics(roundtrip)
    assert recomputed.to_json() == emitted.to_json()


def test_accounting_identity():
    for name in ("fig3", "fig6", "exhaustion", "storm"):
        _, summary = run_simulation(load_scenario(name))
        assert summary.identity_holds(), name
        assert summary.injected >= summary.detected


def test_no_faults_means_clean_metrics():
    doc = json.loads((__import__("importlib").resources.files("tilesim")
                      / "scenarios" / "fig3.scenario").read_text())
    doc["faults"] = {}
    _, summary = run_simulation(parse_scenario(doc))
    assert summary.injected == 0
    assert summary.undetected == 0
    assert all(a == 1.0 for a in summary.availability.values())
    assert summary.supervisor_commands == 0


def test_partial_trace_flagged():
    trace, _ = storm_run()
    truncated = [r for r in trace.records if r.kind != "run-end"]
    summary = compute_metrics(truncated)
    assert summary.partial


def test_detection_within_one_cycle():
    _, summary = run_simulation(load_scenario("fig3"))
    # one base period plus checkpoint and deadline slack
    assert summary.detection_latency_max <= 1000 + 124
    assert summary.recovery_latency_max <= 2 * (1000 + 124)


def test_availability_reflects_deactivation():
    trace = Trace()
    trace.emit(0, "sim", "run-start", horizon=1000, tg_map={"TG1": ["Ta"]})
    trace.emit(0, "sim", "tg-active", tg="TG1", active=True)
    trace.emit(600, "sim", "tg-active", tg="TG1", active=False)
    trace.emit(1000, "sim", "run-end", reason="horizon")
    summary = compute_metrics(trace.records)
    assert summary.availability == {"Ta": 0.6}


ROUNDTRIP_SCENARIOS = {
    **{name: load_scenario(name) for name in BUNDLED},
    **{f"chaos-{seed}": parse_scenario(chaos_doc(seed), name="chaos") for seed in range(5)},
    **{f"wide-{seed}": parse_scenario(wide_doc(seed), name="wide-group") for seed in range(2)},
}


@pytest.mark.parametrize("scenario", ROUNDTRIP_SCENARIOS.values(), ids=ROUNDTRIP_SCENARIOS.keys())
def test_jsonl_read_back_equals_emitted_records(scenario):
    trace, _ = run_simulation(scenario)
    text = trace.to_jsonl()
    back = read_jsonl(io.StringIO(text))
    assert len(back) == len(trace.records)
    for read, emitted in zip(back, trace.records):
        assert read == emitted
        assert (read.at, read.actor, read.kind, read.payload) == \
            (emitted.at, emitted.actor, emitted.kind, emitted.payload)
    assert "".join(rec.to_json() + "\n" for rec in back) == text


def test_emit_rejects_time_going_backwards():
    trace = Trace()
    trace.emit(5, "sim", "tick")
    trace.emit(5, "sim", "tick")
    with pytest.raises(ValueError, match="backwards"):
        trace.emit(4, "sim", "tick")
    assert [r.at for r in trace.records] == [5, 5]


def test_trace_records_time_ordered():
    trace, _ = storm_run()
    times = [r.at for r in trace.records]
    assert times == sorted(times)
