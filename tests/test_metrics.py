import io
import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.metrics import compute_metrics
from tilesim.runner import run_simulation
from tilesim.scenario import load_scenario, parse_scenario
from tilesim.trace import Trace, TraceRecord, encode_canonical, read_jsonl
from trace_corpus import BUNDLED, chaos_doc, stdlib_jsonl, wide_doc


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
    trace.emit(0, "sim", "run-start", {"horizon": 1000, "tg_map": {"TG1": ["Ta"]}})
    trace.emit(0, "sim", "tg-active", {"tg": "TG1", "active": True})
    trace.emit(600, "sim", "tg-active", {"tg": "TG1", "active": False})
    trace.emit(1000, "sim", "run-end", {"reason": "horizon"})
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
    assert stdlib_jsonl(back) == text


# -- the JSONL contract: to_jsonl writes json.dumps's bytes, read_jsonl reads them back

# text with characters the encoder escapes or that are not ASCII
ODD_TEXT = st.one_of(st.text(max_size=5),
                     st.text('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001f6f0', max_size=4))
# a payload key that sorts before "actor", between "actor" and "at", between
# "at" and "kind", or after "kind": where a writer that lays out the record's
# own fields apart from its payload could go wrong
PAYLOAD_KEY = st.one_of(
    st.tuples(st.sampled_from(["", "!", "A", "Z", "ab", "ac"]), ODD_TEXT),
    st.tuples(st.sampled_from(["actor", "as"]), ODD_TEXT),
    st.tuples(st.sampled_from(["at", "b", "id", "group"]), ODD_TEXT),
    st.tuples(st.sampled_from(["kind", "l", "z", "\u00e9", "\U0001f6f0"]), ODD_TEXT),
).map("".join).filter(lambda key: key not in ("actor", "at", "kind"))
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2 ** 80, 2 ** 80),
              st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]), ODD_TEXT),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
    max_leaves=6)
RECORD = st.tuples(st.integers(0, 2 ** 70), ODD_TEXT, ODD_TEXT,
                   st.dictionaries(PAYLOAD_KEY, JSON_VALUE, max_size=5))


def same(a, b) -> bool:
    """Equal and of one type, down through lists and dicts, where -0.0 is
    not 0.0 and NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return (a != a and b != b) or (a == b and math.copysign(1, a) == math.copysign(1, b))
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.lists(RECORD, max_size=4))
def test_jsonl_is_json_dumps_and_reads_back(rows):
    trace = Trace()
    trace.records = [TraceRecord(*row) for row in sorted(rows, key=lambda row: row[0])]
    text = trace.to_jsonl()
    assert text == stdlib_jsonl(trace.records)
    back = read_jsonl(io.StringIO(text))
    assert len(back) == len(trace.records)
    assert all(same(list(read), list(written)) for read, written in zip(back, trace.records))


@pytest.mark.parametrize("field, value", [("at", 7), ("actor", "injector"), ("kind", "fault")])
def test_payload_key_named_like_a_record_field_wins(field, value):
    trace = Trace()
    trace.records = [TraceRecord(5, "sim", "tick", {field: value, "b": 1})]
    text = trace.to_jsonl()
    assert text == stdlib_jsonl(trace.records)
    [back] = read_jsonl(io.StringIO(text))
    assert back == TraceRecord(5, "sim", "tick", {"b": 1})._replace(**{field: value})


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


EDGE_DOCS = {
    "non-ascii": {"name": "fig3-\u03a9", "emoji": "\U0001f6f0", "accent": "d\u00e9j\u00e0"},
    "control": ["\x00\x01\x1f\x7f", "tab\tnew\nline\r", 'quote" back\\slash'],
    "non-finite": [float("nan"), float("inf"), float("-inf")],
    "floats": [0.1 + 0.2, 1 / 3, -0.0, 1e300, 5e-324],  # repr(0.1 + 0.2) has 17 digits
    "int-keys": {10: "ten", 2: "two", -1: "minus"},
    "bool-keys": {True: 1, False: 0},
    "none-key": {None: [None, True, False]},
    "float-key": {1.5: "x"},
    "big-int": [2 ** 70, -(2 ** 64)],
    "empty": {"a": [], "b": {}, "c": [{}, [[]], ""], "d": {"e": {}}},
    "top-level-string": "run-start",
}


@pytest.mark.parametrize("doc", EDGE_DOCS.values(), ids=EDGE_DOCS.keys())
def test_encode_canonical_equals_json_dumps_on_edge_values(doc):
    assert encode_canonical(doc) == _dumps(doc)


def test_encode_canonical_equals_json_dumps_on_documents():
    for name in BUNDLED:
        path = resources.files("tilesim") / "scenarios" / f"{name}.scenario"
        doc = json.loads(path.read_text())
        assert encode_canonical(doc) == _dumps(doc), name
        assert load_scenario(name).canonical_json() == _dumps(doc), name
    _, summary = storm_run()
    assert encode_canonical(summary.to_dict()) == _dumps(summary.to_dict())


def test_encode_canonical_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError) as stdlib:
        _dumps({"tiles": {"C0"}})
    with pytest.raises(TypeError) as ours:
        encode_canonical({"tiles": {"C0"}})
    assert str(ours.value) == str(stdlib.value)


def test_empty_trace_serialises_to_nothing():
    assert Trace().to_jsonl() == ""


def test_emit_rejects_time_going_backwards():
    trace = Trace()
    trace.emit(5, "sim", "tick", {})
    trace.emit(5, "sim", "tick", {})
    with pytest.raises(ValueError, match="backwards"):
        trace.emit(4, "sim", "tick", {})
    assert [r.at for r in trace.records] == [5, 5]


def test_trace_records_time_ordered():
    trace, _ = storm_run()
    times = [r.at for r in trace.records]
    assert times == sorted(times)
