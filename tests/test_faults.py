import math

import pytest

from tilesim.engine import EventQueue, RandomStream
from tilesim.faults import (
    PARTITION, PENDING, PERMANENT_CELL, SEFI_SHARED, SEFI_TILE, TILE, TRANSIENT_STATE,
    FaultEvent, FaultLedger, FaultProfile, RateWindow, TargetSpace, generate,
)
from tilesim.trace import Trace


def space():
    return TargetSpace(
        tiles=["C0", "C1", "C2"],
        threads_on={t: ["Ta", "Tb"] for t in ("C0", "C1", "C2")},
        state_words={"Ta": 4, "Tb": 6},
        partitions=["p0", "p1", "p2", "shared"],
    )


def test_zero_rates_no_explicit_is_empty():
    events = generate(FaultProfile(), 10_000, RandomStream(1, "faults"), space())
    assert events == []


def test_explicit_events_always_present():
    profile = FaultProfile(explicit=[
        FaultEvent(at=42, kind=TRANSIENT_STATE, tile="C0", thread="Ta", masks=(1,)),
    ])
    events = generate(profile, 10_000, RandomStream(1, "faults"), space())
    assert any(e.at == 42 and e.kind == TRANSIENT_STATE for e in events)


def test_poisson_count_within_three_sigma():
    # rate 1e-3 per microsecond over 1e6 microseconds: ~1000 events, sigma ~32
    lam = 1000.0
    sigma = math.sqrt(lam)
    for seed in range(5):
        profile = FaultProfile(rates={TRANSIENT_STATE: 1e-3})
        events = generate(profile, 1_000_000, RandomStream(seed, "faults"), space())
        assert abs(len(events) - lam) < 3 * sigma


def test_generation_is_deterministic():
    profile = FaultProfile(rates={TRANSIENT_STATE: 1e-4, SEFI_TILE: 1e-5})
    a = generate(profile, 500_000, RandomStream(17, "faults"), space())
    b = generate(profile, 500_000, RandomStream(17, "faults"), space())
    assert [(e.at, e.kind, e.tile, e.thread, e.word, e.masks) for e in a] \
        == [(e.at, e.kind, e.tile, e.thread, e.word, e.masks) for e in b]


def test_events_sorted_with_ids():
    profile = FaultProfile(
        rates={TRANSIENT_STATE: 1e-4},
        explicit=[FaultEvent(at=77, kind=SEFI_SHARED, duration=100)],
    )
    events = generate(profile, 200_000, RandomStream(3, "faults"), space())
    assert all(a.at <= b.at for a, b in zip(events, events[1:]))
    assert [e.fault_id for e in events] == list(range(len(events)))


def test_rate_window_multiplier():
    # a x10 storm in the first half roughly shifts the event mass there
    profile = FaultProfile(
        rates={TRANSIENT_STATE: 2e-4},
        windows=[RateWindow(start=0, end=500_000, factor=10.0)],
    )
    events = generate(profile, 1_000_000, RandomStream(5, "faults"), space())
    first = sum(1 for e in events if e.at < 500_000)
    second = len(events) - first
    assert first > 5 * max(second, 1)


def test_targets_are_valid():
    profile = FaultProfile(rates={TRANSIENT_STATE: 1e-4, PERMANENT_CELL: 1e-4,
                                  SEFI_TILE: 1e-4})
    sp = space()
    for e in generate(profile, 300_000, RandomStream(9, "faults"), sp):
        if e.kind == TRANSIENT_STATE:
            assert e.tile in sp.tiles
            assert e.thread in sp.threads_on[e.tile]
            assert 0 <= e.word < sp.state_words[e.thread]
            assert all(m != 0 for m in e.masks)
        elif e.kind == PERMANENT_CELL:
            assert e.partition in sp.partitions
            assert 0 <= e.cell < 64
        elif e.kind == SEFI_TILE:
            assert e.tile in sp.tiles
            assert e.duration > 0


def test_multi_word_upsets_appear():
    profile = FaultProfile(rates={TRANSIENT_STATE: 1e-3}, multi_word_prob=0.5)
    events = generate(profile, 200_000, RandomStream(2, "faults"), space())
    widths = {len(e.masks) for e in events}
    assert widths == {1, 2}


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        FaultProfile(rates={TRANSIENT_STATE: -1.0})
    with pytest.raises(ValueError):
        FaultProfile(rates={"meteor-strike": 1.0})


def test_horizon_must_be_positive():
    with pytest.raises(ValueError):
        generate(FaultProfile(), 0, RandomStream(1, "faults"), space())


def test_ledger_lifecycle():
    trace, queue = Trace(), EventQueue()
    ledger = FaultLedger(trace, queue)
    events = [FaultEvent(at=0, kind=PERMANENT_CELL, fault_id=0, partition="p0", cell=7),
              FaultEvent(at=1, kind=TRANSIENT_STATE, fault_id=1, tile="C0", thread="Ta",
                         word=2, masks=(1, 2)),
              FaultEvent(at=2, kind=SEFI_TILE, fault_id=2, tile="C0", duration=50),
              FaultEvent(at=3, kind=TRANSIENT_STATE, fault_id=3, tile="C0", thread="Tb"),
              FaultEvent(at=4, kind=SEFI_TILE, fault_id=4, tile="C9", duration=50)]
    for ev in events:
        ledger.events[ev.fault_id] = ev
    tile, part, pending = (TILE, "C0"), (PARTITION, "p0"), (PENDING, "C0")

    ledger.arrive(events[0], tile, part, flavor="dd", corrupting=True)  # under a live tile
    queue.now = 1
    ledger.arrive(events[1], tile, words=2)
    queue.now = 10
    ledger.detect(tile, "C0", "G1", 4)  # detected, still open at the tile
    assert ledger.open_ids() == {0, 1}
    ledger.move(tile, pending)
    ledger.arrive(events[2], tile, duration=50)
    ledger.absorb(2)                    # never observed: absorbed
    ledger.absorb(1)                    # detected: an expiry does not absorb it
    queue.now = 12
    ledger.settle(pending, "corrected")
    assert ledger.open_ids() == {0}     # still open at its partition
    ledger.settle(part, "repaired")
    ledger.arrive(events[3], tile, words=1)
    ledger.settle(tile, "degraded", detected_by=("C0", "G1", 5))
    ledger.arrive(events[4], reason="no-target")  # no location: absorbed on arrival

    assert ledger.open_ids() == set()
    assert ledger.outcome == {0: "repaired", 1: "corrected", 2: "absorbed", 3: "degraded"}
    assert ledger.detected_at == {0: 10, 1: 10, 3: 12}
    assert [(r.at, r.actor, r.kind, r.payload) for r in trace.records] == [
        (0, "injector", "fault", {"id": 0, "fault_kind": PERMANENT_CELL, "target": "p0:7",
                                  "disposition": "applied", "flavor": "dd",
                                  "corrupting": True}),
        (1, "injector", "fault", {"id": 1, "fault_kind": TRANSIENT_STATE,
                                  "target": "C0/Ta[2]", "disposition": "applied",
                                  "words": 2}),
        (10, "supervisor", "fault-detected",
         {"id": 0, "tile": "C0", "group": "G1", "index": 4, "latency": 10}),
        (10, "supervisor", "fault-detected",
         {"id": 1, "tile": "C0", "group": "G1", "index": 4, "latency": 9}),
        (10, "injector", "fault", {"id": 2, "fault_kind": SEFI_TILE, "target": "C0",
                                   "disposition": "applied", "duration": 50}),
        (10, "supervisor", "fault-outcome", {"id": 2, "outcome": "absorbed"}),
        (12, "supervisor", "fault-outcome", {"id": 0, "outcome": "corrected"}),
        (12, "supervisor", "fault-outcome", {"id": 1, "outcome": "corrected"}),
        (12, "supervisor", "fault-outcome", {"id": 0, "outcome": "repaired"}),
        (12, "injector", "fault", {"id": 3, "fault_kind": TRANSIENT_STATE,
                                   "target": "C0/Tb[0]", "disposition": "applied",
                                   "words": 1}),
        (12, "supervisor", "fault-detected",
         {"id": 3, "tile": "C0", "group": "G1", "index": 5, "latency": 9}),
        (12, "supervisor", "fault-outcome", {"id": 3, "outcome": "degraded"}),
        (12, "injector", "fault", {"id": 4, "fault_kind": SEFI_TILE, "target": "C9",
                                   "disposition": "absorbed", "reason": "no-target"}),
    ]
