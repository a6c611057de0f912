from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.lockstep import AGREE, DISAGREE, MISS
from tilesim.supervisor import (
    DEFUNCT_STAGE2, REPLACE, STAGE2_NO_SPARE, STATE_UPDATE, Supervisor, Verdict,
    arbitrate,
)


def test_all_agree_verdict():
    members = ["C0", "C1", "C2"]
    reports = {
        "C0": {"C1": AGREE, "C2": AGREE},
        "C1": {"C0": AGREE, "C2": AGREE},
        "C2": {"C0": AGREE, "C1": AGREE},
    }
    v = arbitrate(members, reports)
    assert v.all_agree
    assert v.clique == members
    assert v.faulty == []


def test_partial_reports_still_isolate_faulty():
    # the corrupt tile reported only its first comparison before stopping
    members = ["C0", "C1", "C2"]
    reports = {
        "C0": {"C1": AGREE, "C2": DISAGREE},
        "C1": {"C0": AGREE, "C2": DISAGREE},
        "C2": {"C0": DISAGREE},
    }
    v = arbitrate(members, reports)
    assert v.faulty == ["C2"]
    assert v.clique == ["C0", "C1"]


def test_silent_tile_is_faulty():
    members = ["C0", "C1", "C2"]
    reports = {
        "C0": {"C1": AGREE, "C2": MISS},
        "C1": {"C0": AGREE, "C2": MISS},
    }
    v = arbitrate(members, reports)
    assert v.faulty == ["C2"]


def test_pair_split_unresolvable():
    members = ["C0", "C1"]
    reports = {
        "C0": {"C1": DISAGREE},
        "C1": {"C0": DISAGREE},
    }
    v = arbitrate(members, reports)
    assert v.unresolvable


def test_four_member_two_two_split_unresolvable():
    members = ["C0", "C1", "C2", "C3"]
    reports = {
        "C0": {"C1": AGREE, "C2": DISAGREE},
        "C1": {"C0": AGREE, "C2": DISAGREE},
        "C2": {"C0": DISAGREE},
        "C3": {"C0": DISAGREE},
    }
    # C2~C3 also mutually agree: two cliques of size two tie
    reports["C2"]["C3"] = AGREE
    reports["C3"]["C2"] = AGREE
    reports["C3"]["C0"] = DISAGREE
    v = arbitrate(members, reports)
    assert v.unresolvable


def test_all_miss_flag():
    members = ["C0", "C1", "C2"]
    reports = {
        "C0": {"C1": MISS},
        "C1": {"C0": MISS},
        "C2": {"C0": MISS},
    }
    v = arbitrate(members, reports)
    assert v.unresolvable
    assert v.all_miss


def brute_force_arbitrate(expected, reports):
    """The reference arbitration: try every subset of the group, largest
    first, and keep the cliques of the first size that has any."""
    edges = set()
    for i, j in combinations(expected, 2):
        ri, rj = reports.get(i), reports.get(j)
        if ri is None or rj is None:
            continue
        vi, vj = ri.get(j), rj.get(i)
        if vi in (DISAGREE, MISS) or vj in (DISAGREE, MISS):
            continue
        if vi == AGREE or vj == AGREE:
            edges.add((i, j))

    def is_clique(subset):
        return all((a, b) in edges for a, b in combinations(subset, 2))

    best = []
    for size in range(len(expected), 0, -1):
        for subset in combinations(expected, size):
            if is_clique(subset):
                best.append(subset)
        if best:
            break

    recorded = [v for r in reports.values() for v in r.values()]
    all_miss = bool(recorded) and all(v == MISS for v in recorded)

    if len(best) != 1:
        return Verdict(faulty=[], clique=[], unresolvable=True, all_miss=all_miss)
    clique = list(best[0])
    faulty = [t for t in expected if t not in clique]
    return Verdict(faulty=faulty, clique=clique, all_miss=all_miss)


TILES = [f"C{i}" for i in range(12)]
VERDICTS = (AGREE, DISAGREE, MISS)


@st.composite
def report_sets(draw):
    """Up to 10 expected members in any order, drawn from 12 tiles, so some
    tiles report or are judged without being expected. Each tile holds one
    of three states, half of them the first. About one tile in six sends no
    report and one verdict in six is missing; the rest compare states
    truthfully, or partly at random, or every verdict is a miss."""
    expected = draw(st.permutations(TILES))[:draw(st.integers(0, 10))]
    state = {t: draw(st.sampled_from((0, 0, 1, 2))) for t in TILES}
    mode = draw(st.sampled_from(("truthful", "truthful", "noisy", "noisy", "all-miss")))
    reports = {}
    for tile in TILES:
        if not draw(st.integers(0, 5)):
            continue
        verdicts = {}
        for other in TILES:
            if other == tile or not draw(st.integers(0, 5)):
                continue
            if mode == "all-miss":
                verdicts[other] = MISS
            elif mode == "noisy" and draw(st.booleans()):
                verdicts[other] = draw(st.sampled_from(VERDICTS))
            else:
                verdicts[other] = AGREE if state[tile] == state[other] else DISAGREE
        reports[tile] = verdicts
    return expected, reports


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(report_sets())
def test_arbitrate_matches_brute_force(case):
    expected, reports = case
    assert arbitrate(expected, reports) == brute_force_arbitrate(expected, reports)


def full_reports(members, agree):
    """Every member reports on every other; agree(a, b) says whether they match."""
    return {a: {b: AGREE if agree(a, b) else DISAGREE for b in members if b != a}
            for a in members}


def test_moon_moser_group_of_24_is_unresolvable():
    # members in eight triples that disagree inside, agree across: 3^8
    # largest cliques of size 8 tie
    members = [f"C{i}" for i in range(24)]
    triple = {m: i // 3 for i, m in enumerate(members)}
    reports = full_reports(members, lambda a, b: triple[a] != triple[b])
    v = arbitrate(members, reports)
    assert v.unresolvable
    assert not v.all_miss


def test_one_disagreeing_tile_in_group_of_24_is_faulty():
    members = [f"C{i}" for i in range(24)]
    reports = full_reports(members, lambda a, b: "C17" not in (a, b))
    v = arbitrate(members, reports)
    assert v.faulty == ["C17"]
    assert v.clique == [m for m in members if m != "C17"]


def supervisor(transient=3, defunct=10, spares=("C3",)):
    return Supervisor(transient_threshold=transient, defunct_threshold=defunct,
                      spare_pool=list(spares))


def test_first_fault_commands_state_update():
    s = supervisor()
    action = s.handle_fault("C2", now=1000, group_period=1000)
    assert action.kind == STATE_UPDATE
    assert s.fault_counter["C2"] == 1
    assert s.spare_pool == ["C3"]  # untouched


def test_threshold_triggers_replacement():
    s = supervisor(transient=3)
    s.handle_fault("C2", 1000, 1000)
    s.handle_fault("C2", 2000, 1000)
    action = s.handle_fault("C2", 3000, 1000)
    assert action.kind == REPLACE
    assert action.spare == "C3"
    assert s.spare_pool == []


def test_no_spare_escalates_to_stage2():
    s = supervisor(transient=1, spares=())
    action = s.handle_fault("C2", 1000, 1000)
    assert action.kind == STAGE2_NO_SPARE


def test_defunct_threshold_lifetime():
    s = supervisor(transient=2, defunct=4, spares=("C3", "C4", "C5", "C6"))
    kinds = [s.handle_fault("C2", t * 1000, 1000).kind for t in range(1, 5)]
    assert kinds[-1] == DEFUNCT_STAGE2
    assert s.fault_counter["C2"] == 4


def test_sliding_window_forgets_old_faults():
    s = supervisor(transient=2)
    s.handle_fault("C2", 1_000, 1000)
    # second fault far outside the 100-checkpoint window: counts as first
    action = s.handle_fault("C2", 500_000, 1000)
    assert action.kind == STATE_UPDATE
    assert s.fault_counter["C2"] == 2  # lifetime still accumulates


def test_counter_monotone_until_repair_reset():
    s = supervisor()
    s.handle_fault("C2", 1000, 1000)
    s.handle_fault("C2", 2000, 1000)
    assert s.fault_counter["C2"] == 2
    s.reset_counter("C2")
    assert s.fault_counter["C2"] == 0


def test_thresholds_must_be_ordered():
    with pytest.raises(ValueError):
        Supervisor(transient_threshold=10, defunct_threshold=10)
