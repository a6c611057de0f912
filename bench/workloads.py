"""Benchmark workloads: each one turns a workload seed into a fixed pool of
scenario documents, and knows how one run of the program goes and how to
check its result.

Inputs are drawn from `random.Random` seeded by a string, which is
deterministic across processes and Python versions and independent of the
simulator's own random streams, so a change to the simulator cannot change
the benchmark's inputs.

Every call into the program goes through a module attribute
(`scenario.parse_scenario`, `metrics.compute_metrics`, ...) so that the
layer shims in `layers.py` see it.
"""

from __future__ import annotations

import copy
import io
import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, Optional

from tilesim import metrics, scenario, simulation, trace

# The checks use the unwrapped function, so that a traced run counts only the
# metrics computed on the run's own path.
_compute_metrics = metrics.compute_metrics

# The criterion-4 masking Monte Carlo: 3 tiles in lockstep, one thread.
MC_BASE = {
    "name": "mc-trial", "seed": 0, "horizon": 3500,
    "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"}],
    "threads": [{"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
                 "state_words": 4, "work_per_tick": 200,
                 "checksum_cost": 10, "sync_cost": 15, "update_cost": 15}],
    "thread_groups": [{"id": "TG1", "threads": ["Ta"]}],
    "tile_groups": [{"id": "G1", "members": ["C0", "C1", "C2"],
                     "thread_groups": ["TG1"]}],
    "supervisor": {"transient_threshold": 3, "defunct_threshold": 10},
}

# A copy of the chaos-soak document, kept here so that editing the test
# suite cannot change the benchmark.
CHAOS_BASE = {
    "name": "chaos", "seed": 0, "horizon": 60000,
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

MC_TRIALS = 1000
MISSION_HORIZON = 1_000_000
SOAK_CHAOS_SEEDS = 12
WIDE_RUNS = 32
WIDE_MEMBERS = 14
WIDE_SPARES = 2


def bundled_doc(name: str) -> dict:
    text = (resources.files("tilesim") / "scenarios" / f"{name}.scenario").read_text()
    return json.loads(text)


def _seed31(rng: random.Random) -> int:
    return rng.getrandbits(31)


def mc_docs(seed: int) -> list[dict]:
    """One transient-state fault per trial, at a random time, tile, word and mask."""
    rng = random.Random(f"mc-trial:{seed}")
    docs = []
    for _ in range(MC_TRIALS):
        doc = copy.deepcopy(MC_BASE)
        doc["seed"] = _seed31(rng)
        doc["faults"] = {"explicit": [{
            "at": rng.randint(30, 2900), "kind": "transient-state",
            "tile": rng.choice(("C0", "C1", "C2")), "thread": "Ta",
            "word": rng.randint(0, 3), "masks": [rng.getrandbits(64) | 1],
        }]}
        docs.append(doc)
    return docs


def mission_docs(seed: int) -> list[dict]:
    """`fig3` without faults at a mission-length horizon."""
    doc = bundled_doc("fig3")
    doc["name"] = "mission-long"
    doc["faults"] = {}
    doc["horizon"] = MISSION_HORIZON
    doc["seed"] = _seed31(random.Random(f"mission-long:{seed}"))
    return [doc]


def chaos_doc(chaos_seed: int) -> dict:
    doc = copy.deepcopy(CHAOS_BASE)
    doc["seed"] = chaos_seed
    return doc


def soak_docs(seed: int) -> list[dict]:
    """The four bundled scenarios, then a batch of chaos-soak seeds."""
    rng = random.Random(f"soak:{seed}")
    docs = [bundled_doc(name) for name in scenario.BUNDLED]
    docs += [chaos_doc(_seed31(rng)) for _ in range(SOAK_CHAOS_SEEDS)]
    return docs


def wide_doc(chaos_seed: int) -> dict:
    """The chaos document reshaped into one wide tile group."""
    doc = chaos_doc(chaos_seed)
    doc["name"] = "wide-group"
    members = [f"C{i}" for i in range(WIDE_MEMBERS)]
    doc["tiles"] = ([{"id": m} for m in members]
                    + [{"id": f"S{i}", "spare": True} for i in range(WIDE_SPARES)])
    doc["thread_groups"] = [{"id": "TG-abc", "threads": ["Ta", "Tb", "Tc"]}]
    doc["tile_groups"] = [{"id": "G1", "members": members, "thread_groups": ["TG-abc"]}]
    doc["supervisor"] = {"transient_threshold": 5, "defunct_threshold": 20}
    rates = doc["faults"]["rates"]
    doc["faults"]["rates"] = {kind: 4 * rate for kind, rate in rates.items()}
    return doc


def wide_docs(seed: int) -> list[dict]:
    rng = random.Random(f"wide-group:{seed}")
    return [wide_doc(_seed31(rng)) for _ in range(WIDE_RUNS)]


@dataclass
class Outcome:
    """What one run leaves behind for the checks."""
    sim: Any
    trace: Any
    summary: Any = None          # set when the run itself computes metrics
    jsonl: Optional[str] = None  # set when the run itself serialises


def parse(doc: dict):
    return scenario.parse_scenario(doc, name=doc["name"])


def run_in_memory(sc) -> Outcome:
    """What a campaign script does per trial: build, run, keep the trace."""
    sim = simulation.Simulation(sc)
    return Outcome(sim, sim.run())


def run_cli_path(doc: dict) -> Outcome:
    """`tilesim run --trace-out` then `tilesim metrics`, without the files."""
    sim = simulation.Simulation(parse(doc))
    tr = sim.run()
    text = tr.to_jsonl()
    summary = metrics.compute_metrics(trace.read_jsonl(io.StringIO(text)))
    return Outcome(sim, tr, summary, text)


def overhead_rel_err(doc: dict, summary) -> float:
    """Relative error of the measured checkpoint overhead against the
    analytic t_ckpt / (t_ckpt + period) that criterion 5 uses."""
    switch = doc.get("costs", {}).get("context_switch", 2)
    t_ckpt = sum(t["checksum_cost"] + switch for t in doc["threads"])
    period = doc["threads"][0]["checkpoint_period"]
    analytic = t_ckpt / (t_ckpt + period)
    tiles = summary.overhead_by_tile
    measured = sum(tiles.values()) / len(tiles) if tiles else 0.0
    return abs(measured - analytic) / analytic


@dataclass
class Workload:
    name: str
    why: str
    docs: Callable[[int], list[dict]]
    prepare: Callable[[dict], Any]     # set-up work done once per document
    run: Callable[[Any], Outcome]      # the timed part of one run
    digest_runs: Optional[int] = None  # runs of the pool the trace digest covers

    def check(self, doc: dict, out: Outcome) -> tuple[list[str], dict]:
        """Correctness checks on one run; returns (problems, statistics)."""
        summary = out.summary or _compute_metrics(out.trace.records)
        problems, stats = [], {}
        if not summary.identity_holds():
            problems.append("fault accounting identity broken")
        if out.sim.oracle_divergences:
            problems.append(f"{out.sim.oracle_divergences} oracle divergences")
        if self.name == "mc-trial" and not summary.detected == summary.injected == 1:
            problems.append(f"{summary.detected} of {summary.injected} faults detected")
        if self.name == "mission-long":
            err = overhead_rel_err(doc, summary)
            stats["overhead_rel_err"] = err
            if err >= 0.01:
                problems.append(f"checkpoint overhead off the analytic law by {err:.2%}")
        return problems, stats


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("mc-trial",
                 "criterion-4 Monte Carlo trials: ~35 events each, so per-run "
                 "construction and per-event overhead dominate",
                 mc_docs, parse, run_in_memory),
        Workload("mission-long",
                 "fig3 without faults at horizon 1e6 us: the overhead-law run, "
                 "dominated by workload.execute_slice",
                 mission_docs, parse, run_in_memory),
        Workload("soak",
                 "bundled scenarios and chaos seeds through parse, run, JSONL "
                 "out and back, metrics: every fault kind and the trace I/O",
                 soak_docs, lambda doc: doc, run_cli_path),
        Workload("wide-group",
                 "chaos faults x4 on one 14-tile group, so supervisor.arbitrate "
                 "searches a wide group",
                 wide_docs, parse, run_in_memory, digest_runs=6),
    )
}
