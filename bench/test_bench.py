"""Self-test of the benchmark: the pinned trace digests, and the output
contract at a small size.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

layers, workloads = run.import_program()


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_pinned_seed_gives_pinned_digest_and_counts(name):
    wl = workloads.WORKLOADS[name]
    tally = run.Tally()
    docs, items = run.set_up(wl, run.PINNED_SEED)
    counts, digest = run.checked_pass(layers, wl, docs, items, tally)
    pinned = run.load_pinned()["workloads"][name]
    assert tally.failed == 0, tally.problems
    assert digest == pinned["sha256"]
    assert run.count_totals(counts) == {key: pinned[key] for key in (*run.COUNT_KEYS, "runs")}


def test_same_seed_gives_same_documents():
    for name in run.WORKLOAD_NAMES:
        docs = workloads.WORKLOADS[name].docs
        assert docs(7) == docs(7)
    assert workloads.mc_docs(7) != workloads.mc_docs(8)


def test_config_lists_what_the_benchmark_reports():
    config = json.loads(run.CONFIG.read_text())
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in config["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in config["per_layer"]] == [m[0] for m in run.PER_LAYER]


@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_result_line(trace, table):
    done = bench("--workload", "soak", "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m[0] for m in table)
    units = {m[0]: m[1] for m in table}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key]
        assert isinstance(metric["value"], float)


def test_digest_mismatch_fails_every_run(monkeypatch):
    wl = workloads.WORKLOADS["mission-long"]
    tally = run.Tally()
    monkeypatch.setattr(run, "load_pinned", lambda: {
        "seed": run.PINNED_SEED, "workloads": {wl.name: {"sha256": "0" * 64}}})
    result = run.digest_check(layers, wl, run.PINNED_SEED, "f" * 64, tally)
    assert not result["ok"]
    assert tally.failed == len(wl.docs(run.PINNED_SEED))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.CONFIG, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-trial",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
