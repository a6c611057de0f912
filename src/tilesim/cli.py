"""Command line interface.

Verbs: run, sweep, metrics, validate, replay-check. Exit codes: 0 success,
1 validation error (a malformed command line too) or a replay-check
mismatch, 2 loss of mission (with --fail-on-loss), 3 any other error,
reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from . import runner
from .metrics import compute_metrics
from .scenario import ScenarioError, load_scenario
from .trace import decode_utf8, read_jsonl


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilesim",
        description="Deterministic simulator of lockstepped tiled multiprocessors "
                    "under radiation faults.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, seed=True):
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled name "
                            "(fig3, fig6, exhaustion, storm)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scenario field")
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="execute one scenario")
    common(p_run)
    p_run.add_argument("--until", type=int, default=None, help="stop at this time")
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--metrics-out", default=None)
    p_run.add_argument("--fail-on-loss", action="store_true",
                       help="exit 2 on loss of mission")

    # --seeds sets the seeds, and `--seed` must not pass as its abbreviation
    p_sweep = sub.add_parser("sweep", help="run a parameter grid", allow_abbrev=False)
    common(p_sweep, seed=False)
    p_sweep.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2,...",
                         help="numeric scenario field and its values")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_sweep.add_argument("--csv-out", default=None)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a trace")
    p_metrics.add_argument("--trace", required=True)
    p_metrics.add_argument("--metrics-out", default=None)
    p_metrics.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="lint a scenario file")
    common(p_val)

    p_replay = sub.add_parser("replay-check", help="re-run and byte-compare")
    common(p_replay)
    p_replay.add_argument("--until", type=int, default=None)
    return parser


def _load(args):
    overrides = list(args.overrides)
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    return load_scenario(args.scenario, overrides)


def _until(args):
    if args.until is not None and args.until < 1:
        raise ScenarioError([f"--until: must be at least 1, not {args.until}"])
    return args.until


def cmd_run(args) -> int:
    scenario = _load(args)
    trace, summary = runner.run_simulation(scenario, until=_until(args))
    if args.trace_out:
        Path(args.trace_out).write_text(trace.to_jsonl(), encoding="utf-8")
    if args.metrics_out:
        Path(args.metrics_out).write_text(summary.to_json(), encoding="utf-8")
    if not args.quiet:
        print(json.dumps(summary.to_dict(), sort_keys=True, indent=2))
    if args.fail_on_loss and summary.loss_of_mission:
        return 2
    return 0


def cmd_sweep(args) -> int:
    scenario = _load(args)  # validates before sweeping
    grid = {}
    for spec in args.grid:
        if "=" not in spec:
            raise ScenarioError([f"--grid {spec!r}: expected KEY=V1,V2,..."])
        key, _, values = spec.partition("=")
        parsed = []
        for v in values.split(","):
            try:
                parsed.append(json.loads(v))
            except json.JSONDecodeError:
                raise ScenarioError([f"--grid {key}: non-numeric value {v!r}"])
        grid[key] = parsed
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ScenarioError([f"--seeds: expected comma-separated integers, not {args.seeds!r}"])
    rows = runner.sweep(scenario.raw, grid, seeds)
    if args.csv_out:
        runner.write_sweep_csv(rows, args.csv_out)
    if not args.quiet:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


def cmd_metrics(args) -> int:
    with open(args.trace, "rb") as fh:
        data = fh.read()
    try:
        # newline=None splits lines as a file opened in text mode does
        records = read_jsonl(io.StringIO(decode_utf8(data), newline=None))
        summary = compute_metrics(records)
    except ValueError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 1
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(summary.to_json())
    if not args.quiet:
        print(json.dumps(summary.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_validate(args) -> int:
    _load(args)
    if not args.quiet:
        print(f"{args.scenario}: ok")
    return 0


def cmd_replay_check(args) -> int:
    ok = runner.replay_check(args.scenario, overrides=args.overrides,
                             seed=args.seed, until=_until(args))
    if not args.quiet:
        print("replay-check: " + ("byte-identical" if ok else "MISMATCH"))
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # a usage error exits 2, which means loss of mission
        return 1 if exc.code == 2 else exc.code
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "metrics": cmd_metrics,
        "validate": cmd_validate,
        "replay-check": cmd_replay_check,
    }
    try:
        return handlers[args.verb](args)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
