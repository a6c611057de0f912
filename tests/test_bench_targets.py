"""The benchmark's per-layer shims name program functions by attribute, and
its per-run checks read attributes of a finished run: a renamed or deleted
one must fail here, not only in a bench run."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up here as it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_bench_layer_target_resolves():
    layers = load("layers")
    for layer, owner, attr, _ in layers.TARGETS:
        # as `LayerClock.installed` looks them up
        if isinstance(owner, type):
            target = owner.__dict__.get(attr)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{layer}: {owner.__name__}.{attr} does not resolve"


WORKLOADS = load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_checks_pass_on_the_first_run_of_seed_0(name):
    wl = WORKLOADS[name]
    doc = wl.docs(0)[0]
    problems, _ = wl.check(doc, wl.run(wl.prepare(doc)))
    assert problems == []
