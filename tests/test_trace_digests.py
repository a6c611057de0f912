"""Byte-exact trace oracle: the SHA-256 of each pinned run's JSONL trace.

The trace is the simulator's behavioural contract. A change that keeps
these digests keeps the behaviour of every bundled scenario and of the
first chaos-soak seeds, whatever it does to the code underneath. The
shared-tile pins cover a tile serving two groups: a command to a rebooting
tile, a reboot that settles a pending update, a stale participant, and a
fault in validation memory. Chaos seed 196 covers Stage 3 deactivating
every thread group. The wide-group pins cover arbitration over one 14-tile
group. The reordered
pins cover a tile group that lists its thread groups in another order than
the scenario does: a generated fault picks its thread in scenario order,
while the group checks its threads in its own order. The signal-loss pins
lose about three in ten checkpoint reports, so the supervisor judges rounds
from a partial set of reports.

Each pinned run also pins how many events it scheduled and dispatched,
counted by wrapping `EventQueue.schedule` and `EventQueue.advance` as the
benchmark does: a change that merges or drops events keeps the trace yet
fails here, so it cannot pass as a speedup.
"""

import hashlib

import pytest

from tilesim.engine import EventQueue
from tilesim.scenario import load_scenario, parse_scenario
from tilesim.simulation import Simulation
from trace_corpus import chaos_doc, lossy_doc, reordered_doc, shared_tile_doc, wide_doc

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
    # Stage 3 deactivates both thread groups
    196: "a7fefe6f34716cc2c5b43fe26a833fdb9bd6530403764469345fa43fd03cda92",
}

# (transient threshold, seed) -> digest, for trace_corpus.shared_tile_doc
SHARED_TILE_DIGESTS = {
    (3, 63): "4e8c6b5cc5ea888a4e2721005d9d273d4c123406cb2826ed14993853510a9717",
    (3, 22): "79462b2b602b6665dbfba184f3e34e42f4219929de010d6957dc994757c84ecb",
    (3, 107): "28348048327f9873c6ded0a54ea8ced47700abca02b3bd0733ee60466ce89026",
    (2, 221): "64730293289a943be780765a8ecd93485643c89fb519f58e59016adc858a7e44",
    (2, 322): "6d02768759cc2fa67d705bffacb7955a8aef6fdc52b2239a7a186dd607ef1368",
    (2, 100): "e2a79d42654245e1866ecd31c3af696d2b506ae1f40689681b52213ecb645e50",
    # a validation-memory fault applied to an open checkpoint at t=31037
    (2, 38): "10ea8bea46225aac34546c166fd6ef2d736a6e000b8c47e81e15965b27831777",
}

WIDE_DIGESTS = {
    0: "28eb9c81387ea45c2e2fe19adfba1093617fa14c7a6441a93961fe528cedc8a8",
    1: "ab8079738aa75072a6cf4766e34eb398c925d13c1730f99575d7a1e930dc476e",
    2: "a0ee79534e592acb3ef3a2db41ec8dd84305392a8fb116595dfbab2f01dfc1a3",
    3: "43096484d4b42d90f0fa1d6d22524ece39a5ff36145515168bac77d5dd6b1bc2",
}

REORDERED_DIGESTS = {
    0: "fa47ffcf2bfab64170a01c3d9dd310ddaca64967b57be7ef2522106eaf1970c7",
    1: "3867bdf6c38bdb8df51912dcdce7b040959f79e5cf291c6462f1ba46528d642f",
}

# (document, seed) -> digest, each document at signal_loss_prob 0.3
SIGNAL_LOSS_DOCS = {"chaos": chaos_doc, "wide-group": wide_doc}
SIGNAL_LOSS_DIGESTS = {
    ("chaos", 0): "a64bce996d7e50b44bc7cdbb44b7af5565841879163f45463af3a3ee195a821e",
    ("chaos", 1): "7845ad1fa00ebd34472fc64d7843847346837e4e9b98372c2def3f03c138dc54",
    ("chaos", 2): "8aaf9b5187ddf94c0485c48705782f1d20d25b14c23a68ce44dc4138cf7422de",
    ("chaos", 3): "fa911d55402d5668ff03832fa1feb050afc5de370d4de5d796ca338cad825ff6",
    ("wide-group", 0): "b89854c86dad216f6caac9a57224dcfcec0141b1bb2e7eef613fe4c976f1d691",
    ("wide-group", 1): "5f2b6319838786e6848b0a251c1862e769770774f267ea8ca390890c4326ffdf",
}


# (scheduled, dispatched) events of each pinned run above, keyed like the
# digests and prefixed with the family
EVENT_COUNTS = {
    ("bundled", "exhaustion"): (77, 56),
    ("bundled", "fig3"): (43, 31),
    ("bundled", "fig6"): (305, 215),
    ("bundled", "storm"): (1515, 1123),
    ("chaos", 0): (785, 574),
    ("chaos", 1): (768, 560),
    ("chaos", 2): (752, 542),
    ("chaos", 3): (660, 479),
    ("chaos", 4): (767, 554),
    ("chaos", 196): (399, 305),
    ("reordered", 0): (785, 574),
    ("reordered", 1): (768, 560),
    ("shared-tile", 2, 38): (845, 629),
    ("shared-tile", 2, 100): (781, 574),
    ("shared-tile", 2, 221): (830, 611),
    ("shared-tile", 2, 322): (790, 581),
    ("shared-tile", 3, 22): (864, 647),
    ("shared-tile", 3, 63): (842, 621),
    ("shared-tile", 3, 107): (772, 573),
    ("wide-group", 0): (1750, 1636),
    ("wide-group", 1): (1701, 1563),
    ("wide-group", 2): (1559, 1453),
    ("wide-group", 3): (1657, 1543),
    ("signal-loss", "chaos", 0): (629, 489),
    ("signal-loss", "chaos", 1): (605, 470),
    ("signal-loss", "chaos", 2): (636, 489),
    ("signal-loss", "chaos", 3): (597, 466),
    ("signal-loss", "wide-group", 0): (2999, 2711),
    ("signal-loss", "wide-group", 1): (2729, 2461),
}


@pytest.fixture
def pinned_run(monkeypatch):
    """Run a scenario; return its trace digest and (scheduled, dispatched)."""
    counts = [0, 0]
    schedule, advance = EventQueue.schedule, EventQueue.advance

    def counting_schedule(self, *args):
        counts[0] += 1
        return schedule(self, *args)

    def counting_advance(self):
        entry = advance(self)
        counts[1] += entry is not None
        return entry

    monkeypatch.setattr(EventQueue, "schedule", counting_schedule)
    monkeypatch.setattr(EventQueue, "advance", counting_advance)

    def run(sc):
        counts[:] = [0, 0]
        text = Simulation(sc).run().to_jsonl()
        return hashlib.sha256(text.encode()).hexdigest(), tuple(counts)

    return run


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_scenario_trace_digest(pinned_run, name):
    digest, events = pinned_run(load_scenario(name))
    assert digest == BUNDLED_DIGESTS[name]
    assert events == EVENT_COUNTS["bundled", name]


@pytest.mark.parametrize("seed", sorted(CHAOS_DIGESTS))
def test_chaos_seed_trace_digest(pinned_run, seed):
    digest, events = pinned_run(parse_scenario(chaos_doc(seed), name="chaos"))
    assert digest == CHAOS_DIGESTS[seed]
    assert events == EVENT_COUNTS["chaos", seed]


@pytest.mark.parametrize("threshold,seed", sorted(SHARED_TILE_DIGESTS))
def test_shared_tile_trace_digest(pinned_run, threshold, seed):
    sc = parse_scenario(shared_tile_doc(seed, threshold), name="shared-tile")
    digest, events = pinned_run(sc)
    assert digest == SHARED_TILE_DIGESTS[(threshold, seed)]
    assert events == EVENT_COUNTS["shared-tile", threshold, seed]


@pytest.mark.parametrize("seed", sorted(WIDE_DIGESTS))
def test_wide_group_trace_digest(pinned_run, seed):
    digest, events = pinned_run(parse_scenario(wide_doc(seed), name="wide-group"))
    assert digest == WIDE_DIGESTS[seed]
    assert events == EVENT_COUNTS["wide-group", seed]


@pytest.mark.parametrize("seed", sorted(REORDERED_DIGESTS))
def test_reordered_thread_groups_trace_digest(pinned_run, seed):
    sc = parse_scenario(reordered_doc(seed), name="reordered")
    assert Simulation(sc).groups["G1"].plan(0)[0] == ["Tb", "Ta"]
    digest, events = pinned_run(sc)
    assert digest == REORDERED_DIGESTS[seed]
    assert events == EVENT_COUNTS["reordered", seed]


@pytest.mark.parametrize("doc,seed", sorted(SIGNAL_LOSS_DIGESTS))
def test_signal_loss_trace_digest(pinned_run, doc, seed):
    raw = lossy_doc(SIGNAL_LOSS_DOCS[doc](seed), 0.3)
    digest, events = pinned_run(parse_scenario(raw, name=raw["name"]))
    assert digest == SIGNAL_LOSS_DIGESTS[doc, seed]
    assert events == EVENT_COUNTS["signal-loss", doc, seed]


OWNERSHIP_RUNS = ([("bundled", name) for name in sorted(BUNDLED_DIGESTS)]
                  + [("chaos", seed) for seed in sorted(CHAOS_DIGESTS)]
                  + [("wide-group", seed) for seed in sorted(WIDE_DIGESTS)])


@pytest.mark.parametrize("family,key", OWNERSHIP_RUNS)
def test_each_record_owns_its_payload(family, key):
    # a payload shared by two records would change both when one is edited,
    # and a payload key named like a record field overrides it in to_jsonl
    if family == "bundled":
        sc = load_scenario(key)
    else:
        sc = parse_scenario((chaos_doc if family == "chaos" else wide_doc)(key), name=family)
    records = Simulation(sc).run().records
    assert len({id(r.payload) for r in records}) == len(records)
    assert [r for r in records if r.payload.keys() & {"at", "actor", "kind"}] == []
