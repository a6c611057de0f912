"""Run, sweep, and replay-check entry points shared by the CLI and tests."""

from __future__ import annotations

import copy
import csv
import json
from typing import Optional

from .metrics import MetricsSummary, compute_metrics
from .scenario import Scenario, ScenarioError, apply_override, load_scenario, parse_scenario
from .simulation import Simulation
from .trace import Trace


def run_simulation(scenario: Scenario, until: Optional[int] = None) -> tuple[Trace, MetricsSummary]:
    sim = Simulation(scenario, until=until)
    trace = sim.run()
    return trace, compute_metrics(trace.records)


SWEEP_COLUMNS = (
    "undetected", "corrected", "replaced", "repaired", "degraded", "absorbed",
    "injected", "checkpoints",
)


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def sweep(doc: dict, grid: dict[str, list], seeds: list[int]) -> list[dict]:
    """One independent run per (grid point, seed); rows sorted by grid key.

    Grid keys are scenario override paths; all grid values must be numeric.
    """
    for key, values in grid.items():
        bad = [v for v in values if not _numeric(v)]
        if bad:
            raise ScenarioError([f"sweep grid {key}: non-numeric value {bad[0]!r}"])

    keys = sorted(grid)
    points: list[tuple] = [()]
    for key in keys:
        points = [p + (v,) for p in points for v in grid[key]]

    rows = []
    for point in points:
        for seed in seeds:
            run_doc = copy.deepcopy(doc)
            for key, value in zip(keys, point):
                apply_override(run_doc, f"{key}={json.dumps(value)}")
            run_doc["seed"] = seed
            scenario = parse_scenario(run_doc, name=run_doc.get("name", "sweep"))
            _, summary = run_simulation(scenario)
            row = {key: value for key, value in zip(keys, point)}
            row["seed"] = seed
            for col in SWEEP_COLUMNS:
                row[col] = getattr(summary, col)
            overheads = summary.overhead_by_tile.values()
            row["overhead_mean"] = (sum(overheads) / len(overheads)) if overheads else 0.0
            avail = summary.availability.values()
            row["availability_min"] = min(avail) if avail else 1.0
            row["detection_latency_mean"] = summary.detection_latency_mean
            row["recovery_latency_mean"] = summary.recovery_latency_mean
            row["loss_of_mission"] = summary.loss_of_mission
            rows.append(row)
    return rows


def write_sweep_csv(rows: list[dict], path: str):
    if not rows:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def replay_check(path_or_name: str, overrides: Optional[list[str]] = None,
                 seed: Optional[int] = None, until: Optional[int] = None) -> bool:
    """Run twice and byte-compare trace and metrics."""
    outputs = []
    for _ in range(2):
        overrides_all = list(overrides or [])
        if seed is not None:
            overrides_all.append(f"seed={seed}")
        scenario = load_scenario(path_or_name, overrides_all)
        trace, summary = run_simulation(scenario, until=until)
        outputs.append((trace.to_jsonl(), summary.to_json()))
    return outputs[0] == outputs[1]
