"""tilesim benchmark: closed-loop simulation runs, end to end and per layer.

    python3 bench/run.py --workload mc-trial --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --pin                   # rewrite pinned digests and BENCHMARK.json

One invocation sets up one workload's pool of scenarios from the seed, runs
the pool once untimed to check it and count simulated work, then runs the
pool again and again for --seconds. With --trace 0 it reports end-to-end
host-time metrics; with --trace 1 it splits the time between untraced runs
and runs with the layer shims of `layers.py` installed, and reports the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Standard library only; one process, no threads. Set-up time is sampled in
fresh interpreters started one after another.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED = BENCH / "pinned.json"
CONFIG = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("mc-trial", "mission-long", "soak", "wide-group")
PINNED_SEED = 0
SETUP_SAMPLES = 5
RUN_SECONDS = 10
ENV_NOTE = ("host-time numbers on a small shared 2-vCPU host drift from hour to hour; "
            "compare a parent and a change only in runs made back to back on one host")

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("runs_per_s", "1/s", "higher", 0.2),
    ("run_ms_p50", "ms", "lower", 0.2),
    ("events_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better); counts and times are per run unless the unit says otherwise
PER_LAYER = (
    ("engine.schedule.calls", "calls/run", "lower"),
    ("engine.schedule.us", "us/run", "lower"),
    ("engine.advance.calls", "calls/run", "lower"),
    ("engine.advance.us", "us/run", "lower"),
    ("engine.live_ratio", "ratio", "higher"),
    ("simulation.init.us", "us/run", "lower"),
    ("simulation.run.us", "us/run", "lower"),
    ("simulation.self_us", "us/run", "lower"),
    ("workload.execute_slice.calls", "calls/run", "lower"),
    ("workload.execute_slice.us", "us/run", "lower"),
    ("workload.cycle_words", "words/run", "lower"),
    ("workload.ns_per_cycle_word", "ns", "lower"),
    ("workload.checksum.calls", "calls/run", "lower"),
    ("workload.checksum.us", "us/run", "lower"),
    ("lockstep.compare.calls", "calls/run", "lower"),
    ("lockstep.compare.us", "us/run", "lower"),
    ("lockstep.vote.calls", "calls/run", "lower"),
    ("lockstep.vote.us", "us/run", "lower"),
    ("supervisor.arbitrate.calls", "calls/run", "lower"),
    ("supervisor.arbitrate.us", "us/run", "lower"),
    ("supervisor.arbitrate.us_max", "us", "lower"),
    ("supervisor.handle_fault.calls", "calls/run", "lower"),
    ("trace.emit.calls", "calls/run", "lower"),
    ("trace.emit.us", "us/run", "lower"),
    ("trace.to_jsonl.us", "us/run", "lower"),
    ("trace.bytes", "B/run", "lower"),
    ("trace.read_jsonl.us", "us/run", "lower"),
    ("metrics.compute.us", "us/run", "lower"),
    ("faults.generate.us", "us/run", "lower"),
    ("fabric.partial_reconfigure.calls", "calls/run", "lower"),
    ("fabric.repair_ok_ratio", "ratio", "higher"),
    ("criticality.reallocate.calls", "calls/run", "lower"),
    ("criticality.reallocate.us", "us/run", "lower"),
    ("scenario.parse.us", "us/scenario", "lower"),
    ("tracing.overhead_pct", "%", "lower"),
)

COUNT_KEYS = ("events_scheduled", "events_dispatched", "trace_records",
              "trace_bytes", "simulated_us")


def import_program():
    """Make the checkout's `src/tilesim` importable, or exit with an error."""
    if not (SRC / "tilesim" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'tilesim'}")
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    return layers, workloads


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "note": ENV_NOTE}


def set_up(wl, seed: int):
    docs = wl.docs(seed)
    return docs, [wl.prepare(doc) for doc in docs]


def timed_set_up(name: str, seed: int):
    """Import the program and build the pool; set-up time is from T0."""
    with HostSpeed() as speed:
        layers, workloads = import_program()
        wl = workloads.WORKLOADS[name]
        docs, items = set_up(wl, seed)
        end = time.perf_counter()
    return layers, wl, docs, items, speed.nominal(T0, end, end - T0 - speed.paused)


def setup_samples(name: str, seed: int, own: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Tally:
    """Runs attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stats: dict[str, list[float]] = {}

    def record(self, label: str, problems: list[str], stats: dict):
        self.attempted += 1
        for key, value in stats.items():
            self.stats.setdefault(key, []).append(value)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: " + "; ".join(problems))


def describe(exc: Exception) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"


def run_checked(wl, doc, item, tally: Tally, expect: dict = None, speed=None):
    """One run, timed, then checked outside the timed part.

    Returns ((start, end, host seconds spent in the run), outcome); the
    outcome is None if the run or its checks raised."""
    out, problems, stats = None, [], {}
    paused = speed.paused if speed else 0.0
    start = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as exc:  # a run that raises is counted as failed
        problems.append(describe(exc))
    end = time.perf_counter()
    took = (start, end, end - start - ((speed.paused - paused) if speed else 0.0))
    if out is not None:
        try:
            problems, stats = wl.check(doc, out)
        except Exception as exc:  # so is one whose result cannot be checked
            problems, out = [describe(exc)], None
    if out is not None and expect is not None \
            and len(out.trace.records) != expect["trace_records"]:
        problems.append(f"{len(out.trace.records)} trace records, "
                        f"{expect['trace_records']} in the checked run")
    tally.record(doc["name"], problems, stats)
    return took, out


def checked_pass(layers, wl, docs, items, tally: Tally):
    """Run the pool once untimed; return per-run counts, and the digest of
    the trace JSONL of the first `wl.digest_runs` runs (all by default)."""
    clock = layers.LayerClock(only=("engine.schedule", "engine.advance"))
    digest = hashlib.sha256()
    counts = []
    with clock.installed():
        for i, (doc, item) in enumerate(zip(docs, items)):
            scheduled = clock.calls["engine.schedule"]
            dispatched = clock.tally["engine.advance"]
            _, out = run_checked(wl, doc, item, tally)
            if out is None:
                counts.append(None)
                continue
            text = out.jsonl if out.jsonl is not None else out.trace.to_jsonl()
            if wl.digest_runs is None or i < wl.digest_runs:
                digest.update(text.encode())
            counts.append({
                "events_scheduled": clock.calls["engine.schedule"] - scheduled,
                "events_dispatched": clock.tally["engine.advance"] - dispatched,
                "trace_records": len(out.trace.records),
                "trace_bytes": len(text.encode()),
                "simulated_us": out.trace.records[-1].at,
            })
    return counts, digest.hexdigest()


def count_totals(counts) -> dict:
    done = [c for c in counts if c is not None]
    totals = {key: sum(c[key] for c in done) for key in COUNT_KEYS}
    totals["runs"] = len(done)
    return totals


def one_pass(wl, docs, items, counts, tally: Tally, speed=None) -> list[tuple]:
    """Every run of the pool that passed the checked pass, in order."""
    return [run_checked(wl, doc, item, tally, expect, speed)[0]
            for doc, item, expect in zip(docs, items, counts) if expect is not None]


def host_seconds(runs) -> float:
    return sum(raw for _, _, raw in runs)


def end_to_end(passes, speed, counts, setup: list[float]) -> dict:
    """Medians over passes and runs of host time at the nominal speed."""
    nominal = [[speed.nominal(*run) for run in p] for p in passes]
    events = count_totals(counts)["events_dispatched"]
    run_ms = [t * 1e3 for p in nominal for t in p]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "runs_per_s": (statistics.median(len(p) / sum(p) for p in nominal), len(passes)),
        "run_ms_p50": (statistics.median(run_ms), len(run_ms)),
        "events_per_s": (statistics.median(events / sum(p) for p in nominal), len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def tail(passes, speed) -> dict:
    """p90 of run time at the nominal speed, where ten runs lie beyond it."""
    run_ms = [speed.nominal(*run) * 1e3 for p in passes for run in p]
    if len(run_ms) < 100:
        return {}
    return {"run_ms_p90": {"value": statistics.quantiles(run_ms, n=10)[-1],
                           "unit": "ms", "samples": len(run_ms)}}


def unscaled(passes, speed) -> dict:
    """Timings as measured, before scaling to the nominal speed."""
    return {"host_speed": speed.ratio(),
            "runs_per_s": statistics.median(len(p) / host_seconds(p) for p in passes),
            "run_ms_p50": statistics.median(raw * 1e3 for p in passes for _, _, raw in p)}


def per_layer(clock, runs: int, overhead_pct: float) -> dict:
    calls, secs, tally = clock.calls, clock.seconds, clock.tally

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "engine.live_ratio": ratio(tally["engine.advance"], calls["engine.schedule"]),
        "simulation.self_us": clock.self_seconds["simulation.run"] * 1e6 / runs,
        "workload.cycle_words": tally["workload.execute_slice"] / runs,
        "workload.ns_per_cycle_word": ratio(secs["workload.execute_slice"] * 1e9,
                                            tally["workload.execute_slice"]),
        "supervisor.arbitrate.us_max": clock.max_seconds["supervisor.arbitrate"] * 1e6,
        "trace.bytes": tally["trace.to_jsonl"] / runs,
        "fabric.repair_ok_ratio": ratio(tally["fabric.partial_reconfigure"],
                                        calls["fabric.partial_reconfigure"]),
        "scenario.parse.us": ratio(secs["scenario.parse"] * 1e6, calls["scenario.parse"]),
        "tracing.overhead_pct": overhead_pct,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif what == "calls":
            out[name] = calls[layer] / runs
        else:
            out[name] = secs[layer] * 1e6 / runs
    return out


def load_pinned() -> dict:
    try:
        return json.loads(PINNED.read_text())
    except FileNotFoundError:
        return {"seed": PINNED_SEED, "workloads": {}}


def digest_check(layers, wl, seed: int, digest: str, tally: Tally) -> dict:
    """Compare the pinned seed's trace digest; a mismatch fails the whole pass."""
    pinned = load_pinned()
    docs = wl.docs(pinned["seed"])[:wl.digest_runs]
    if seed != pinned["seed"]:
        items = [wl.prepare(doc) for doc in docs]
        _, digest = checked_pass(layers, wl, docs, items, tally)
    want = pinned["workloads"].get(wl.name, {}).get("sha256")
    ok = digest == want
    if not ok:
        tally.failed += len(docs)
        tally.problems.append(f"trace digest {digest[:16]} for seed {pinned['seed']}, "
                              f"pinned {str(want)[:16]}")
    return {"seed": pinned["seed"], "sha256": digest, "ok": ok}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    layers, wl, docs, items, own_setup = timed_set_up(name, seed)
    tally = Tally()
    counts, digest = checked_pass(layers, wl, docs, items, tally)
    report = {"workload": name, "env": environment(seed), "pool": len(docs),
              "counts": count_totals(counts)}
    if not report["counts"]["runs"]:
        sys.exit(f"error: every run failed the checked pass: {tally.problems}")

    if trace:
        # Untraced and traced passes alternate, so that both see the same
        # host speed; the per-layer numbers are unscaled host time.
        clock = layers.LayerClock()
        with clock.installed():
            for doc in docs:
                wl.prepare(doc)
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(one_pass(wl, docs, items, counts, tally))
            with clock.installed():
                traced.append(one_pass(wl, docs, items, counts, tally))
        overhead = (statistics.median(host_seconds(t) / host_seconds(p)
                                      for p, t in zip(plain, traced)) - 1) * 100
        runs = sum(map(len, traced))
        metrics = {key: (value, runs) for key, value
                   in per_layer(clock, runs, overhead).items()}
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setup = setup_samples(name, seed, own_setup)
        passes = []
        with HostSpeed() as speed:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(one_pass(wl, docs, items, counts, tally, speed))
        metrics = end_to_end(passes, speed, counts, setup)
        report["tail"] = tail(passes, speed)
        report["unscaled"] = unscaled(passes, speed)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    report["digest"] = digest_check(layers, wl, seed, digest, tally)
    report["checks"] = {
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems,
        **{f"{key}_max": max(values) for key, values in tally.stats.items()},
    }
    report["metrics"] = {key: {"value": v, "unit": units[key], "samples": n}
                         for key, (v, n) in metrics.items()}
    return report


def result_line(report: dict) -> dict:
    checks = report["checks"]
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {key: {"value": m["value"], "unit": m["unit"]}
                    for key, m in report["metrics"].items()},
    }


def print_report(report: dict):
    for key, m in {**report["metrics"], **report.get("tail", {})}.items():
        print(f"{report['workload']:>12}  {key:<34} {m['value']:>14.6g} {m['unit']:<11} "
              f"n={m['samples']}")
    for key, value in report.get("unscaled", {}).items():
        print(f"{report['workload']:>12}  unscaled {key:<25} {value:>14.6g}")
    checks = report["checks"]
    print(f"{report['workload']:>12}  failed_frac {checks['failed_frac']:.6g} "
          f"({checks['failed']}/{checks['attempted']})")
    for problem in checks["problems"]:
        print(f"{report['workload']:>12}  FAILED {problem}")
    print("report " + json.dumps(report, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("report ")))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
    print(json.dumps(merged, sort_keys=True))
    return 0


def pin() -> int:
    """Rewrite the pinned digests and counts, and BENCHMARK.json."""
    layers, workloads = import_program()
    pinned = {"seed": PINNED_SEED, "workloads": {}}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        tally = Tally()
        docs, items = set_up(wl, PINNED_SEED)
        counts, digest = checked_pass(layers, wl, docs, items, tally)
        if tally.failed:
            print(f"{name}: not pinned, checks failed: {tally.problems}", file=sys.stderr)
            return 1
        pinned["workloads"][name] = {"sha256": digest, **count_totals(counts)}
        print(f"{name}: {digest}")
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    config = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workloads.WORKLOADS[name].why}
                      for name in WORKLOAD_NAMES],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    CONFIG.write_text(json.dumps(config, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite bench/pinned.json and BENCHMARK.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(timed_set_up(args.workload, args.seed)[-1])
        return 0
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(result_line(report), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
