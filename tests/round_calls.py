"""How many Python calls does a run of the simulator make?

    python3 tests/round_calls.py [--seed N]

Wall time on a shared host drifts by up to 50% between runs, but the number
of Python-level calls a run makes does not, so it is a cost figure that two
trees can be compared by. This script builds the documents of the four
benchmark workloads with `bench/workloads.py` (read as they are, never
edited): the one `mission-long` run (`fig3` without faults at horizon 1e6),
the first 200 `mc-trial` trials, the `wide-group` pool (chaos faults x4
on one 14-tile group) and the `soak` pool (the bundled scenarios and a
batch of chaos seeds). It parses each document outside the profiler, then
counts with `cProfile` the calls of building the `Simulation` and running
it, and prints the calls per run of each workload and the calls per
checkpoint round (the calls over the `checkpoint-start` records). Beside
them it prints the events the runs scheduled and dispatched, and the trace
records, each per run and per round, so the share of a round's calls that
goes to events or to writing records can be read off. A fault-free
`mission-long` run is nearly all unanimous rounds, so its calls per round
is the cost of one such round. Next to these it prints the passes of the
cyclic garbage collector per run in each generation (gen0/1/2, counted
through `gc.callbacks` while the profiled runs are built and run). A
second, unprofiled pass counts the events, scheduled by the queue's
insertion count and dispatched by wrapping `Simulation.dispatch`, and the
calls of the workload kernels, `execute_slice` and the two that a state's
words and checksum cost, `checksum_callback` and `_jump_words`, by
wrapping them on the `workload` module. Every count repeats exactly from
run to run, so a change in an advance memo's sharing shows as a changed
`execute_slice` count. The counts are the same at every seed of a
fault-free `mission-long`.

Under each workload's line it prints the events that the pool dispatched
to each handler, by the handler's `__qualname__`, most first. The
benchmark's `events_per_s` counts dispatched events, so this tells how
much of that figure each handler makes up, and how far a change that
merges or drops a handler's events moves it.

It needs only the standard library, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MC_TRIALS = 200


def count_calls(scenarios: list) -> tuple[int, int, int, list[int]]:
    """The Python calls made building and running each scenario, the
    checkpoint rounds the runs started, the trace records they wrote and
    the cyclic collector's passes over each generation meanwhile, each
    summed."""
    from tilesim.simulation import Simulation

    profile = cProfile.Profile()
    rounds = records = 0
    passes = [0, 0, 0]

    def count_pass(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    # a full collection first, so that no garbage of the parse is left to
    # trigger a pass inside the runs
    gc.collect()
    gc.callbacks.append(count_pass)
    try:
        for sc in scenarios:
            profile.enable()
            trace = Simulation(sc).run()
            profile.disable()
            rounds += len(trace.of_kind("checkpoint-start"))
            records += len(trace.records)
    finally:
        gc.callbacks.remove(count_pass)
    # One entry per code object. `pstats` keys functions by file, line and
    # name, and so keeps one of the `__init__`s that `dataclasses` generates
    # alike at "<string>", line 2, dropping the others' calls.
    return sum(entry.callcount for entry in profile.getstats()), rounds, records, passes


KERNELS = ("execute_slice", "checksum_callback", "_jump_words")


def count_unprofiled(scenarios: list) -> tuple[dict[str, int], int, Counter]:
    """The calls of each of `KERNELS` made running each scenario, the
    events the runs scheduled, and the events they dispatched by handler
    `__qualname__`, each summed."""
    from tilesim import workload
    from tilesim.simulation import Simulation

    calls = dict.fromkeys(KERNELS, 0)
    originals = {name: getattr(workload, name) for name in KERNELS}
    dispatch = Simulation.dispatch
    scheduled = 0
    dispatched = Counter()

    def counted_dispatch(sim, ev):
        dispatched[ev[2].__qualname__] += 1
        dispatch(sim, ev)

    def counted(name):
        fn = originals[name]

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    try:
        for name in KERNELS:
            setattr(workload, name, counted(name))
        Simulation.dispatch = counted_dispatch
        for sc in scenarios:
            sim = Simulation(sc)
            sim.run()
            scheduled += sim.queue._seq   # one insertion per scheduled event
    finally:
        for name, fn in originals.items():
            setattr(workload, name, fn)
        Simulation.dispatch = dispatch
    return calls, scheduled, dispatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name, docs in (("mission-long", workloads.mission_docs(args.seed)),
                       ("mc-trial", workloads.mc_docs(args.seed)[:MC_TRIALS]),
                       ("wide-group", workloads.wide_docs(args.seed)),
                       ("soak", workloads.soak_docs(args.seed))):
        scenarios = [workloads.parse(doc) for doc in docs]
        total, rounds, records, passes = count_calls(scenarios)
        kernels, scheduled, handled = count_unprofiled(scenarios)
        dispatched = sum(handled.values())
        print(f"{name:<13} runs {len(docs):>4}  calls {total:>9}  "
              f"calls/run {round(total / len(docs)):>7}  calls/round {total / rounds:6.1f}  "
              f"scheduled/run {scheduled / len(docs):.1f}  "
              f"dispatched/run {dispatched / len(docs):.1f}  "
              f"scheduled/round {scheduled / rounds:.1f}  "
              f"dispatched/round {dispatched / rounds:.1f}  "
              "gc passes/run " + "/".join(f"{n / len(docs):.2f}" for n in passes) + "  "
              f"records/run {records / len(docs):.1f}  records/round {records / rounds:.1f}  "
              + "  ".join(f"{k}/run {v / len(docs):.2f}" for k, v in kernels.items()))
        print("    dispatched by handler: "
              + "  ".join(f"{handler} {n}" for handler, n in handled.most_common()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
