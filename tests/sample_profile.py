"""Where does a run of the simulator spend its time? A sampling profile.

    python3 tests/sample_profile.py [--seed N] [--samples N] [--top N]

`cProfile` charges each Python call a fixed overhead, so it inflates the
share of functions that make many small calls and can reorder a ranking.
This script samples instead: a `SIGPROF` interval timer interrupts the
process on its CPU time, and each sample records the Python stack that was
running. The kernel delivers the signal at its own tick, about every 4 ms
on a typical host, whatever interval is asked for, so a short run yields a
few samples only: the script repeats the runs of each workload until it
holds at least `--samples` samples (default 2000).

The workloads are those of `tests/round_calls.py`, built with
`bench/workloads.py` (read as they are, never edited): the one
`mission-long` run, the first 200 `mc-trial` trials and the `wide-group`
pool. Documents are parsed outside the sampled span, which covers building
each `Simulation` and running it. For each workload the script prints the
runs and samples taken, then:

- the share of samples taken inside a pass of the cyclic garbage
  collector, told by a flag that `gc.callbacks` raises at a pass's start
  and lowers at its end. A signal that arrives during a pass is handled
  when Python code next runs, which is the end callback, before the flag
  falls;
- each function's inclusive share, the samples with the function anywhere
  on the stack (counted once per sample), next to its self share, the
  samples with it on top; the `--top` largest (default 15);
- the `--top` source lines by self share, where a sample inside a
  collector pass counts as "(cyclic collector)".

Shares of a few percent move by about a point between invocations. It
needs only the standard library, runs only where `signal.setitimer`
exists (not on Windows), and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = str(Path(__file__).resolve())
INTERVAL = 0.001   # seconds of CPU time asked for; the kernel rounds it up to its tick
GC_LINE = "(cyclic collector)"


class Sampler:
    """Counts, over the samples taken while `active`, each function on the
    stack, each line on top of it, and the samples inside collector passes."""

    def __init__(self):
        self.active = False
        self.in_gc = False
        self.samples = self.gc_samples = 0
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.lines: Counter = Counter()

    def on_gc(self, phase, info):
        self.in_gc = phase == "start"

    def on_signal(self, signum, frame):
        if not self.active:
            return
        self.samples += 1
        self.gc_samples += self.in_gc
        # this script's own frames (the runner and the gc callback) are left out
        while frame is not None and frame.f_code.co_filename == HERE:
            frame = frame.f_back
        if frame is None:
            return
        code = frame.f_code
        self.self_time[name(code)] += 1
        # a frame between lines, as in some comprehension code, has no line number
        line = f"{where(code)}:{frame.f_lineno or '?'} {name(code)}"
        self.lines[GC_LINE if self.in_gc else line] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            if code not in seen and code.co_filename != HERE:
                seen.add(code)
                self.inclusive[name(code)] += 1
            frame = frame.f_back


def name(code) -> str:
    return getattr(code, "co_qualname", code.co_name)


def where(code) -> str:
    path = Path(code.co_filename)
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return path.name


def sample(scenarios: list, target: int) -> tuple[Sampler, int]:
    """Build and run each scenario, over and over, until `target` samples are
    taken; return the sampler and the runs made."""
    from tilesim.simulation import Simulation

    sampler = Sampler()
    runs = 0
    # a full collection first, so that no garbage of the parse is left to
    # trigger a pass inside the runs
    gc.collect()
    gc.callbacks.append(sampler.on_gc)
    previous = signal.signal(signal.SIGPROF, sampler.on_signal)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        while sampler.samples < target:
            for sc in scenarios:
                sampler.active = True
                Simulation(sc).run()
                sampler.active = False
                runs += 1
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
        gc.callbacks.remove(sampler.on_gc)
    return sampler, runs


def report(label: str, sampler: Sampler, runs: int, top: int):
    n = sampler.samples
    print(f"{label}: {n} samples over {runs} runs; "
          f"inside cyclic-collector passes {100 * sampler.gc_samples / n:.1f}%")
    print(f"  {'inclusive':>9} {'self':>6}  function")
    for fn, k in sampler.inclusive.most_common(top):
        print(f"  {100 * k / n:8.1f}% {100 * sampler.self_time[fn] / n:5.1f}%  {fn}")
    print(f"  {'self':>9}  line")
    for line, k in sampler.lines.most_common(top):
        print(f"  {100 * k / n:8.1f}%  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--samples", type=int, default=2000,
                        help="samples to take of each workload at least (default 2000)")
    parser.add_argument("--top", type=int, default=15,
                        help="functions and lines to print of each (default 15)")
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("--samples must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from round_calls import MC_TRIALS

    for label, docs in (("mission-long", workloads.mission_docs(args.seed)),
                        ("mc-trial", workloads.mc_docs(args.seed)[:MC_TRIALS]),
                        ("wide-group", workloads.wide_docs(args.seed))):
        scenarios = [workloads.parse(doc) for doc in docs]
        sampler, runs = sample(scenarios, args.samples)
        report(label, sampler, runs, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
