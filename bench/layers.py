"""Per-layer counters and timers, wrapped around the program from outside.

`LayerClock.installed()` replaces each public layer function with a shim
that counts calls and times them, and puts the originals back on exit.
Methods are patched on their class. Module functions are patched at every
use site: each loaded `tilesim` module attribute that is the same function
object gets the shim, because a module that did `from .x import f` holds
its own reference (`runner` and `cli` import `compute_metrics` that way).

A shim keeps a stack of the time its wrapped callees took, so a layer's
self time is its own duration minus that of the wrapped layers it called.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from tilesim import (criticality, engine, fabric, faults, lockstep, metrics,
                     scenario, simulation, supervisor, trace, workload)


def _cycle_words(args, result):
    ts, ticks = args[0], args[1]
    return (ticks // ts.spec.work_per_tick) * ts.spec.state_words


def _returned_event(args, result):
    return result is not None


def _returned_true(args, result):
    return result is True


def _result_len(args, result):
    return len(result)


# (layer, owner, attribute, optional tally taken from (args, result))
TARGETS = (
    ("engine.schedule", engine.EventQueue, "schedule", None),
    ("engine.advance", engine.EventQueue, "advance", _returned_event),
    ("simulation.init", simulation.Simulation, "__init__", None),
    ("simulation.run", simulation.Simulation, "run", None),
    ("workload.execute_slice", workload, "execute_slice", _cycle_words),
    ("workload.checksum", workload, "checksum_callback", None),
    ("lockstep.compare", lockstep, "compare_with_siblings", None),
    ("lockstep.vote", lockstep, "vote_outputs", None),
    ("supervisor.arbitrate", supervisor, "arbitrate", None),
    ("supervisor.handle_fault", supervisor.Supervisor, "handle_fault", None),
    ("trace.emit", trace.Trace, "emit", None),
    ("trace.to_jsonl", trace.Trace, "to_jsonl", _result_len),
    ("trace.read_jsonl", trace, "read_jsonl", None),
    ("metrics.compute", metrics, "compute_metrics", None),
    ("faults.generate", faults, "generate", None),
    ("fabric.partial_reconfigure", fabric.Fabric, "partial_reconfigure", _returned_true),
    ("criticality.reallocate", criticality, "reallocate", None),
    ("scenario.parse", scenario, "parse_scenario", None),
)


class LayerClock:
    """Calls, inclusive, self and longest time per layer, and tallies.

    `only` limits the shims to the named layers, for a cheap count."""

    def __init__(self, only=None):
        self.only = only
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.max_seconds: dict[str, float] = defaultdict(float)
        self.tally: dict[str, int] = defaultdict(int)
        self._callee_time = [0.0]

    def _shim(self, layer, fn, tally):
        callee_time = self._callee_time

        def shim(*args, **kwargs):
            callee_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = callee_time.pop()
                callee_time[-1] += took
                self.calls[layer] += 1
                self.seconds[layer] += took
                self.self_seconds[layer] += took - inner
                if took > self.max_seconds[layer]:
                    self.max_seconds[layer] = took
            if tally is not None:
                self.tally[layer] += tally(args, result)
            return result

        return shim

    @contextmanager
    def installed(self):
        undo = []
        try:
            for layer, owner, attr, tally in TARGETS:
                if self.only is not None and layer not in self.only:
                    continue
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    sites = [owner]
                else:
                    original = getattr(owner, attr)
                    sites = [mod for name, mod in list(sys.modules.items())
                             if name.split(".")[0] == "tilesim"]
                shim = self._shim(layer, original, tally)
                for site in sites:
                    for name, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, name, shim)
                            undo.append((site, name, original))
            yield self
        finally:
            for site, name, original in reversed(undo):
                setattr(site, name, original)
