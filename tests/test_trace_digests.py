"""Byte-exact trace oracle: the SHA-256 of each pinned run's JSONL trace.

The trace is the simulator's behavioural contract. A change that keeps
these digests keeps the behaviour of every bundled scenario and of the
first chaos-soak seeds, whatever it does to the code underneath.
"""

import hashlib

import pytest

from test_soak import chaos_doc
from tilesim.scenario import load_scenario, parse_scenario
from tilesim.simulation import Simulation

BUNDLED_DIGESTS = {
    "fig3": "d80b81eaa01c083210c2482ef0de823c4d06e90ac7cb827d8c285275a7a188af",
    "fig6": "f9f545288bc51c68c14c69dcbdec76a4800642a3cf8d9858615e99978ea7ff47",
    "storm": "4697c9b546dd9330b4dd67c1e15fb4ee46d53b514bb9e9f04b1218174a67e90e",
    "exhaustion": "0bbf260f0a36b1e140683d0bd3ba39ab543bf35a317ddd802465634b24d093ed",
}

CHAOS_DIGESTS = {
    0: "cb94ac9ece7e994b538534e94c523da17bc51d95ab6adefdfd22228508424565",
    1: "73b69f9ade412f5cf4748a944185dddce61ab45433f1452bf647b231ad0a6225",
    2: "4f3638455e4fd9042ecba91e6d956050f4a8234c0a49011e7a32989237f03c40",
    3: "0523cbac465fc86c4fa086415a7f731f391517a243024c894be5a9bc3bd6ce25",
    4: "4628184203fc2f5126941ed9a8fa607f8fd0502e168b2ac9b4ce249d8ae5de63",
}


def trace_digest(sc) -> str:
    return hashlib.sha256(Simulation(sc).run().to_jsonl().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_scenario_trace_digest(name):
    assert trace_digest(load_scenario(name)) == BUNDLED_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(CHAOS_DIGESTS))
def test_chaos_seed_trace_digest(seed):
    assert trace_digest(parse_scenario(chaos_doc(seed), name="chaos")) == CHAOS_DIGESTS[seed]
