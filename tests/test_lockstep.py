from tilesim.lockstep import (
    AGREE, DISAGREE, MISS, CheckpointCost, compare_with_siblings, vote_outputs,
)
from tilesim.tiles import TileGroup
from tilesim.workload import OutputRecord, ThreadSpec


def test_all_agree():
    rows = {t: (7,) for t in ("C0", "C1", "C2")}
    rep = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 24, "C2": 24}, 100, rows)
    assert rep.verdicts == {"C1": AGREE, "C2": AGREE}
    assert not rep.detected_mismatch
    assert rep.completed_at == 24


def test_faulty_sibling_detected_and_comparison_stops():
    # the corrupt member disagrees with its first sibling and stops, so the
    # remaining sibling gets no verdict at all
    rows = {"C0": (7,), "C1": (7,), "C2": (9,)}
    written = {"C0": 24, "C1": 24, "C2": 24}
    healthy = compare_with_siblings("C0", ["C0", "C1", "C2"], written, 100, rows)
    assert healthy.verdicts == {"C1": AGREE, "C2": DISAGREE}
    assert healthy.detected_mismatch
    corrupt = compare_with_siblings("C2", ["C0", "C1", "C2"], written, 100, rows)
    assert corrupt.verdicts == {"C0": DISAGREE}


def test_stop_on_first_mismatch_in_ready_order():
    # C1 becomes ready before C2; the mismatch with C1 halts comparison
    rows = {"C0": (7,), "C1": (8,), "C2": (7,)}
    rep = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 20, "C1": 30, "C2": 40}, 100, rows)
    assert rep.verdicts == {"C1": DISAGREE}
    assert rep.completed_at == 30


def test_deadline_miss():
    rows = {"C0": (7,), "C1": (7,)}
    rep = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 30}, 100, rows)
    assert rep.verdicts == {"C1": AGREE, "C2": MISS}
    assert rep.completed_at == 100


def test_blocked_reads_miss_everyone_but_stop_after_first():
    rows = {t: (7,) for t in ("C0", "C1", "C2")}
    rep = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 24, "C2": 24}, 100, rows,
        reads_blocked=True)
    assert rep.verdicts == {"C1": MISS}


def test_multi_thread_agreement_needs_all():
    rows = {"C0": (1, 2), "C1": (1, 99)}
    rep = compare_with_siblings("C0", ["C0", "C1"], {"C0": 24, "C1": 24}, 100, rows)
    assert rep.verdicts == {"C1": DISAGREE}


def test_missing_own_entry_disagrees_even_with_an_equal_row():
    # an entry lost from my validation memory cannot vouch for anything
    rows = {"C0": (1, None), "C1": (1, None), "C2": (1, 5)}
    rep = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 24, "C2": 24}, 100, rows)
    assert rep.verdicts == {"C1": DISAGREE}
    assert rep.detected_mismatch


def test_no_checked_thread_agrees():
    rows = {"C0": (), "C1": ()}
    rep = compare_with_siblings("C0", ["C0", "C1"], {"C0": 24, "C1": 24}, 100, rows)
    assert rep.verdicts == {"C1": AGREE}


def test_checked_threads_modular_schedule():
    group = TileGroup("G1", ["C0"], ["TG"], base_period=1000,
                      comparison_deadline=500, grace_period=100)
    group.threads = [ThreadSpec("Ta", 1, 1000), ThreadSpec("Tb", 1, 3000)]
    hits = [i for i in range(9) if "Tb" in [s.thread_id for s in group.checked(i)]]
    assert hits == [0, 3, 6]
    assert all(group.checked(i)[0].thread_id == "Ta" for i in range(9))
    group.base_period = 3000   # the divisor follows the group's own base
    assert [len(group.checked(i)) for i in range(3)] == [2, 2, 2]


def test_checkpoint_cost_accounting():
    costs = CheckpointCost(context_switch=2)
    specs = [ThreadSpec("Ta", 1, 1000, checksum_cost=10),
             ThreadSpec("Tb", 1, 1000, checksum_cost=10)]
    assert costs.checksum_duration(specs) == 2 * (10 + 2)


def rec(tid, cycle, digest):
    return OutputRecord(thread_id=tid, cycle_counter=cycle, digest=digest)


def test_vote_three_identical():
    records = {t: rec("Ta", 4, 77) for t in ("C0", "C1", "C2")}
    result = vote_outputs(records, voting_enabled=True)
    assert result.voted.digest == 77
    assert result.divergent == []
    assert not result.no_majority


def test_vote_two_versus_one():
    records = {"C0": rec("Ta", 4, 77), "C1": rec("Ta", 4, 77), "C2": rec("Ta", 4, 5)}
    result = vote_outputs(records, voting_enabled=True)
    assert result.voted.digest == 77
    assert result.divergent == ["C2"]


def test_vote_no_majority_suppresses():
    records = {"C0": rec("Ta", 4, 1), "C1": rec("Ta", 4, 2), "C2": rec("Ta", 4, 3)}
    result = vote_outputs(records, voting_enabled=True)
    assert result.voted is None
    assert result.no_majority
    assert sorted(result.divergent) == ["C0", "C1", "C2"]


def test_vote_pair_split_has_no_majority():
    records = {"C0": rec("Ta", 4, 1), "C1": rec("Ta", 4, 2)}
    result = vote_outputs(records, voting_enabled=True)
    assert result.no_majority


def test_voting_disabled_lets_divergence_escape():
    records = {"C0": rec("Ta", 4, 77), "C1": rec("Ta", 4, 77), "C2": rec("Ta", 4, 5)}
    result = vote_outputs(records, voting_enabled=False)
    assert result.divergent == ["C2"]
    assert result.voted is not None
