"""Corpus oracle: one SHA-256 over many runs' traces, one over their metrics.

Run it before and after a change that must keep the trace bytes:

    python3 tests/trace_corpus.py

The corpus is the bundled scenarios, chaos seeds 0-299, and the shared-tile
variant (C2 serves both groups) at transient thresholds 3 and 2 over seeds
0-399: 1104 runs. The first hash covers each run's JSONL trace,
the second each run's `compute_metrics(...).to_json()`, in that run order.
Each run's JSONL is also read back with `read_jsonl`: the script exits 1,
naming the run, unless the records read back, re-serialised by the stdlib's
`json.dumps`, give the same bytes, and unless they give the same metrics.
The script prints these as three lines: the run count, then each hash.
A fourth line hashes the wide-group variant (one 14-tile group) over seeds
0-59, traces then metrics, so that arbitration of wide groups is covered.
A fifth hashes the chaos and wide-group documents with report signal loss
at probabilities 0.05, 0.3 and 0.9 over seeds 0-59 (360 runs), so that
rounds in which some reports are lost are covered. All five lines take
about 70 s on a 2-vCPU host.
The script compares each family's run count and hashes with `PINS` and
exits 1, naming each family that moved, after printing every line. A
change that alters trace bytes on purpose updates `PINS` with its re-pin.

    python3 tests/trace_corpus.py --manifest PATH

also writes a manifest to PATH: one tab-separated line per run of the
three families, in run order, giving the family, the run's index within
it, the scenario name, the seed, the record count and the SHA-256 of the
run's JSONL trace and of its metrics JSON. It depends on nothing but the
runs, so two trees whose manifests differ show which runs moved.

    python3 tests/trace_corpus.py --against DIR

also runs this corpus in a child interpreter that imports `tilesim` from
`DIR/src`, say a checkout of the parent commit, side by side with its own
runs. It prints one line per run whose trace or metrics differ between
the two trees (family, index, scenario, seed, and the record count on each
side, theirs first), then the count of runs that did not move, and it exits
1 if any run moved. Finding a moved run's first differing record is left
to a diff of the two traces.

It needs only the standard library; pytest does not collect it, and the
soak and digest tests take their scenario documents from here.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tilesim.metrics import compute_metrics  # noqa: E402
from tilesim.scenario import load_scenario, parse_scenario  # noqa: E402
from tilesim.simulation import Simulation  # noqa: E402
from tilesim.trace import read_jsonl  # noqa: E402

BUNDLED = ("fig3", "fig6", "storm", "exhaustion")

# family -> (runs, traces hash, metrics hash)
PINS = {
    "corpus": (1104, "a6378d87b762b7fd7771ae64d91b295a72192ed274271fbb185d3c5074dc3b9b",
               "1f5b473308c5ff7e7edbd36ac086ac956282a067fafbaa58fc6bf01577b61cdf"),
    "wide": (60, "3e7984cecd13dd5f605aad01a5bcfd83eec7db6465667f11e2996065606632eb",
             "e8d8947d1d0695f93fa000f0241ecc999b447d562f6d46534bcbcd8963b97b1e"),
    "lossy": (360, "8e8a0f0b65968f8e6c349cb9921faeed02639b436ccb4b1dbb1189a805b19a3f",
              "02eeda1f80b18736ad24be0a8339acf4cfa4b2600a0e75a83189469b7cc678db"),
}


def chaos_doc(seed):
    return {
        "name": "chaos", "seed": seed, "horizon": 60000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"}, {"id": "C3"},
                  {"id": "C4"}, {"id": "C5", "spare": True}],
        "threads": [
            {"id": "Ta", "criticality": 8, "checkpoint_period": 1000,
             "state_words": 4, "work_per_tick": 100, "emits_output": True,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
            {"id": "Tb", "criticality": 3, "checkpoint_period": 2000,
             "state_words": 4, "work_per_tick": 100,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
            {"id": "Tc", "criticality": 5, "checkpoint_period": 1500,
             "state_words": 6, "work_per_tick": 120,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
        ],
        "thread_groups": [{"id": "TG-ab", "threads": ["Ta", "Tb"]},
                          {"id": "TG-c", "threads": ["Tc"]}],
        "tile_groups": [
            {"id": "G1", "members": ["C0", "C1", "C2"], "thread_groups": ["TG-ab"]},
            {"id": "G2", "members": ["C3", "C4"], "thread_groups": ["TG-c"]},
        ],
        "supervisor": {"transient_threshold": 2, "defunct_threshold": 5},
        "features": {"output_voting": True, "ecc": True},
        "faults": {
            "rates": {
                "transient-state": 3e-4,
                "transient-validation-memory": 5e-5,
                "sefi-tile": 2e-5,
                "sefi-shared": 4e-6,
                "permanent-cell": 1e-5,
                "memory-word": 5e-5,
            },
            "windows": [{"start": 20000, "end": 30000, "factor": 4.0}],
            "multi_word_prob": 0.2,
            "sefi_duration": 1200,
        },
    }


def shared_tile_doc(seed, transient_threshold):
    doc = chaos_doc(seed)
    doc["tile_groups"] = [
        {"id": "G1", "members": ["C0", "C1", "C2"], "thread_groups": ["TG-ab"]},
        {"id": "G2", "members": ["C2", "C3", "C4"], "thread_groups": ["TG-c"]},
    ]
    doc["supervisor"] = {"transient_threshold": transient_threshold, "defunct_threshold": 5}
    return doc


def reordered_doc(seed):
    """The chaos document with TG-ab split in two, and G1 listing the halves
    in the opposite order to the top-level `thread_groups`: the order of a
    tile's threads for fault draws and the order of a group's checked
    threads then differ."""
    doc = chaos_doc(seed)
    doc["name"] = "reordered"
    doc["thread_groups"] = [{"id": "TG-a", "threads": ["Ta"]},
                            {"id": "TG-b", "threads": ["Tb"]},
                            {"id": "TG-c", "threads": ["Tc"]}]
    doc["tile_groups"][0]["thread_groups"] = ["TG-b", "TG-a"]
    return doc


def wide_doc(seed):
    """The chaos document reshaped into one 14-tile group with two spares
    and every fault rate x4, as in the `wide-group` benchmark workload."""
    doc = chaos_doc(seed)
    doc["name"] = "wide-group"
    members = [f"C{i}" for i in range(14)]
    doc["tiles"] = ([{"id": m} for m in members]
                    + [{"id": f"S{i}", "spare": True} for i in range(2)])
    doc["thread_groups"] = [{"id": "TG-abc", "threads": ["Ta", "Tb", "Tc"]}]
    doc["tile_groups"] = [{"id": "G1", "members": members, "thread_groups": ["TG-abc"]}]
    doc["supervisor"] = {"transient_threshold": 5, "defunct_threshold": 20}
    rates = doc["faults"]["rates"]
    doc["faults"]["rates"] = {kind: 4 * rate for kind, rate in rates.items()}
    return doc


def lossy_doc(doc, prob):
    """`doc` with each checkpoint report lost with probability `prob`."""
    doc["features"]["signal_loss_prob"] = prob
    return doc


def corpus():
    for name in BUNDLED:
        yield load_scenario(name)
    for seed in range(300):
        yield parse_scenario(chaos_doc(seed), name="chaos")
    for threshold in (3, 2):
        for seed in range(400):
            yield parse_scenario(shared_tile_doc(seed, threshold), name="shared-tile")


def wide_corpus():
    for seed in range(60):
        yield parse_scenario(wide_doc(seed), name="wide-group")


def lossy_corpus():
    for prob in (0.05, 0.3, 0.9):
        for seed in range(60):
            for make in (chaos_doc, wide_doc):
                doc = lossy_doc(make(seed), prob)
                yield parse_scenario(doc, name=doc["name"])


def stdlib_jsonl(records):
    """The JSONL of `records` by `json.dumps`, an encoder independent of the
    one under test."""
    return "".join(json.dumps({"at": rec.at, "actor": rec.actor, "kind": rec.kind, **rec.payload},
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for rec in records)


def hashes(scenarios, family="", manifest=None):
    """The run count and the two hashes of a family of runs. Each run adds
    its line to the `manifest` list, if one is given."""
    traces, metrics = hashlib.sha256(), hashlib.sha256()
    runs = 0
    for scenario in scenarios:
        trace = Simulation(scenario).run()
        text = trace.to_jsonl()
        summary = compute_metrics(trace.records).to_json()
        back = read_jsonl(io.StringIO(text))
        if (stdlib_jsonl(back) != text
                or compute_metrics(back).to_json() != summary):
            sys.exit(f"run {runs} ({scenario.name}, seed {scenario.seed}): "
                     "the JSONL read back differs from the emitted trace")
        trace_bytes, metrics_bytes = text.encode(), summary.encode()
        traces.update(trace_bytes)
        metrics.update(metrics_bytes)
        if manifest is not None:
            manifest.append("\t".join([
                family, str(runs), scenario.name, str(scenario.seed), str(len(trace.records)),
                hashlib.sha256(trace_bytes).hexdigest(),
                hashlib.sha256(metrics_bytes).hexdigest()]))
        runs += 1
    return runs, traces.hexdigest(), metrics.hexdigest()


def hash_families(manifest):
    """Print the five lines and return each family's run count and hashes."""
    got = {}
    got["corpus"] = runs, traces, metrics = hashes(corpus(), "corpus", manifest)
    print(f"runs    {runs}")
    print(f"traces  {traces}")
    print(f"metrics {metrics}")
    got["wide"] = runs, traces, metrics = hashes(wide_corpus(), "wide", manifest)
    print(f"wide    {runs} runs, traces {traces}, metrics {metrics}")
    got["lossy"] = runs, traces, metrics = hashes(lossy_corpus(), "lossy", manifest)
    print(f"lossy   {runs} runs, traces {traces}, metrics {metrics}")
    return got


def start_against(tree, tmp):
    """Start writing this corpus's manifest, run on `tree`'s `tilesim`, to
    `tmp`/manifest.tsv in a child interpreter. Its output goes to
    `tmp`/output.txt."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import trace_corpus; "
            "trace_corpus.main(['--manifest', sys.argv[3]])")
    with open(Path(tmp) / "output.txt", "w", encoding="utf-8") as out:
        return subprocess.Popen(
            [sys.executable, "-c", code, str(Path(tree).resolve() / "src"),
             str(Path(__file__).resolve().parent), str(Path(tmp) / "manifest.tsv")],
            stdout=out, stderr=subprocess.STDOUT)


def report_against(child, tree, tmp, ours):
    """Wait for `child` and print each run of its manifest that differs
    from `ours`, then the count of runs that did not. Returns the number of
    runs that moved."""
    child.wait()
    path = Path(tmp) / "manifest.tsv"
    theirs = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    if len(theirs) != len(ours):
        print((Path(tmp) / "output.txt").read_text(encoding="utf-8"), end="", file=sys.stderr)
        sys.exit(f"--against {tree}: the child wrote {len(theirs)} runs, not {len(ours)}")
    moved = 0
    for their_line, our_line in zip(theirs, ours):
        theirs_run, ours_run = their_line.split("\t"), our_line.split("\t")
        if theirs_run != ours_run:
            family, index, scenario, seed, count = theirs_run[:5]
            print(f"moved   {family} {index} {scenario} seed {seed}: "
                  f"{count} -> {ours_run[4]} records")
            moved += 1
    print(f"against {tree}: {len(ours) - moved} of {len(ours)} runs did not move")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", metavar="PATH",
                        help="also write one tab-separated line per run to PATH")
    parser.add_argument("--against", metavar="DIR",
                        help="also run the corpus on DIR/src and list the runs that differ")
    args = parser.parse_args(argv)
    manifest = None if args.manifest is None and args.against is None else []
    with tempfile.TemporaryDirectory() as tmp:
        child = None if args.against is None else start_against(args.against, tmp)
        got = hash_families(manifest)
        moved = 0 if child is None else report_against(child, args.against, tmp, manifest)
    if args.manifest is not None:
        with open(args.manifest, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in manifest)
    pins_moved = [family for family, pin in PINS.items() if got[family] != pin]
    if pins_moved:
        print(f"moved from the pins: {', '.join(pins_moved)}", file=sys.stderr)
    return 1 if pins_moved or moved else 0


if __name__ == "__main__":
    sys.exit(main())
