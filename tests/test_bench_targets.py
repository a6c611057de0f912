"""The benchmark's per-layer shims name program functions by attribute:
a renamed or deleted one must fail here, not only in a traced bench run."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_bench_layer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for layer, owner, attr, _ in layers.TARGETS:
        # as `LayerClock.installed` looks them up
        if isinstance(owner, type):
            target = owner.__dict__.get(attr)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{layer}: {owner.__name__}.{attr} does not resolve"
