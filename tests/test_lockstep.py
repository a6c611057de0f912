from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.lockstep import (
    AGREE, DISAGREE, MISS, compare_with_siblings, unanimous_reports, vote_outputs,
)
from tilesim.supervisor import arbitrate


def test_all_agree():
    rows = {t: (7,) for t in ("C0", "C1", "C2")}
    verdicts, completed_at = compare_with_siblings("C0", ["C0", "C1", "C2"], 24, 100, rows)
    assert verdicts == {"C1": AGREE, "C2": AGREE}
    assert completed_at == 24


def test_faulty_sibling_detected_and_comparison_stops():
    # the corrupt member disagrees with its first sibling and stops, so the
    # remaining sibling gets no verdict at all
    rows = {"C0": (7,), "C1": (7,), "C2": (9,)}
    healthy, _ = compare_with_siblings("C0", ["C0", "C1", "C2"], 24, 100, rows)
    assert healthy == {"C1": AGREE, "C2": DISAGREE}
    corrupt, completed_at = compare_with_siblings("C2", ["C0", "C1", "C2"], 24, 100, rows)
    assert corrupt == {"C0": DISAGREE}
    assert completed_at == 24


def test_deadline_miss():
    rows = {"C0": (7,), "C1": (7,)}
    verdicts, completed_at = compare_with_siblings("C0", ["C0", "C1", "C2"], 24, 100, rows)
    assert verdicts == {"C1": AGREE, "C2": MISS}
    assert completed_at == 100


def test_a_miss_before_the_deadline_waits_for_every_writer():
    # C2 never wrote: it is ready only at the deadline, after the writers
    # that follow it in rotation order, so they are judged first
    members = ["C0", "C1", "C2", "C3", "C4"]
    rows = {m: (7,) for m in ("C0", "C1", "C3", "C4")}
    verdicts, completed_at = compare_with_siblings("C0", members, 24, 100, rows)
    assert list(verdicts.items()) == [
        ("C1", AGREE), ("C3", AGREE), ("C4", AGREE), ("C2", MISS)]
    assert completed_at == 100
    rows["C4"] = (9,)
    verdicts, completed_at = compare_with_siblings("C0", members, 24, 100, rows)
    assert list(verdicts.items()) == [("C1", AGREE), ("C3", AGREE), ("C4", DISAGREE)]
    assert completed_at == 24


def test_a_miss_at_the_write_instant_stops_the_walk_there():
    # with the deadline at the write, C2 is ready as early as the writers
    # and is met in rotation order
    members = ["C0", "C1", "C2", "C3", "C4"]
    rows = {m: (7,) for m in ("C0", "C1", "C3", "C4")}
    verdicts, completed_at = compare_with_siblings("C0", members, 100, 100, rows)
    assert list(verdicts.items()) == [("C1", AGREE), ("C2", MISS)]
    assert completed_at == 100


def test_blocked_reads_miss_everyone_but_stop_after_first():
    rows = {t: (7,) for t in ("C0", "C1", "C2")}
    verdicts, completed_at = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], 24, 100, rows, reads_blocked=True)
    assert verdicts == {"C1": MISS}
    assert completed_at == 100


def test_multi_thread_agreement_needs_all():
    rows = {"C0": (1, 2), "C1": (1, 99)}
    verdicts, _ = compare_with_siblings("C0", ["C0", "C1"], 24, 100, rows)
    assert verdicts == {"C1": DISAGREE}


def test_missing_own_entry_disagrees_even_with_an_equal_row():
    # a row lost from my validation memory cannot vouch for anything, even
    # to a sibling whose row is lost too
    rows = {"C0": None, "C1": None, "C2": (1, 5)}
    verdicts, _ = compare_with_siblings("C0", ["C0", "C1", "C2"], 24, 100, rows)
    assert verdicts == {"C1": DISAGREE}


def test_no_checked_thread_agrees():
    rows = {"C0": (), "C1": ()}
    verdicts, _ = compare_with_siblings("C0", ["C0", "C1"], 24, 100, rows)
    assert verdicts == {"C1": AGREE}


def reference_compare_with_siblings(me, members, written_at, deadline_at, rows,
                                    reads_blocked=False):
    """The reference comparison: every writer ready at the write, every
    other sibling (or every sibling, with reads blocked) at the deadline,
    taken in order of (time, rotation) until the first verdict that is not
    agree."""
    my_pos = members.index(me)
    n = len(members)
    order = []
    for pos, sib in enumerate(members):
        if sib == me:
            continue
        ready = not reads_blocked and sib in rows
        when = written_at if ready else deadline_at
        order.append((when, (pos - my_pos) % n, sib, ready))
    order.sort(key=lambda item: (item[0], item[1]))

    mine = rows[me]
    mine_whole = mine is not None
    verdicts = {}
    completed = written_at
    for when, _, sib, ready in order:
        if not ready:
            verdicts[sib] = MISS
            completed = when
            break
        same = mine_whole and rows[sib] == mine
        verdicts[sib] = AGREE if same else DISAGREE
        completed = when
        if not same:
            break
    return verdicts, completed


@st.composite
def comparisons(draw):
    """Up to 8 members in any order; any subset of them (always including
    me) has written, all at one time, with a deadline at or after it that
    is often the write itself; rows of up to 3 entries from a small
    alphabet, some rows missing (None); reads blocked or not."""
    tiles = [f"C{i}" for i in range(8)]
    members = draw(st.permutations(tiles))[:draw(st.integers(1, 8))]
    me = draw(st.sampled_from(members))
    written_at = draw(st.integers(0, 40))
    deadline_at = draw(st.sampled_from([written_at, written_at + draw(st.integers(0, 40))]))
    width = draw(st.integers(0, 3))
    entry = st.integers(0, 2)
    row = st.one_of(st.none(), st.tuples(*[entry] * width))
    rows = {m: draw(row) for m in members if m == me or draw(st.booleans())}
    return me, members, written_at, deadline_at, rows, draw(st.booleans())


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(comparisons())
def test_compare_with_siblings_matches_reference(case):
    got = compare_with_siblings(*case)
    want = reference_compare_with_siblings(*case)
    assert got == want
    assert list(got[0]) == list(want[0])  # same comparison order


@st.composite
def wide_comparisons(draw):
    """9-24 members in any order, who all write at one time but for up to
    three that never write; a deadline at or after the write; one row that
    every writer holds, but for one or two odd rows, changed or missing."""
    tiles = [f"C{i}" for i in range(24)]
    members = draw(st.permutations(tiles))[:draw(st.integers(9, 24))]
    me = draw(st.sampled_from(members))
    written_at = draw(st.integers(0, 40))
    deadline_at = draw(st.integers(written_at, written_at + 10))
    silent = draw(st.lists(st.sampled_from(members), max_size=3))
    row = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    rows = {m: row for m in members if m == me or m not in silent}
    for m in draw(st.lists(st.sampled_from(sorted(rows)), max_size=2)):
        k = draw(st.integers(0, len(row) - 1))
        rows[m] = draw(st.sampled_from([None, row[:k] + (3,) + row[k + 1:]]))
    return me, members, written_at, deadline_at, rows, draw(st.booleans())


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(wide_comparisons())
def test_wide_compare_with_siblings_matches_reference(case):
    got = compare_with_siblings(*case)
    want = reference_compare_with_siblings(*case)
    assert got == want
    assert list(got[0]) == list(want[0])


@st.composite
def unanimous_rounds(draw):
    """1-24 members in any order, all written at one time, a deadline at
    or after it, and one row of up to 3 entries that every member holds."""
    tiles = [f"C{i}" for i in range(24)]
    members = draw(st.permutations(tiles))[:draw(st.integers(1, 24))]
    written_at = draw(st.integers(0, 40))
    deadline_at = draw(st.integers(written_at, 50))
    row = tuple(draw(st.lists(st.integers(0, 2), max_size=3)))
    return members, written_at, deadline_at, {m: row for m in members}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(unanimous_rounds(), st.data())
def test_unanimous_reports_equal_the_general_path(case, data):
    members, written_at, deadline_at, rows = case
    reports = unanimous_reports(members, rows)
    assert ({me: (reports[me], written_at) for me in members}
            == {me: compare_with_siblings(me, *case) for me in members})
    verdict = arbitrate(members, reports)
    assert verdict.all_agree and verdict.clique == members

    # each way of breaking unanimity leaves the round to the general path
    me = data.draw(st.sampled_from(members))
    row = rows[me]
    wiped = dict.fromkeys(members)
    assert unanimous_reports(members, wiped) is None
    if len(members) > 1:
        assert unanimous_reports(members, {**rows, me: row + (0,)}) is None
    missing = {m: r for m, r in rows.items() if m != me}
    assert unanimous_reports(members, missing) is None
    assert unanimous_reports(members, rows, reads_blocked=True) is None


def test_unanimous_reports_own_their_verdicts():
    members = ["C0", "C1", "C2", "C3"]
    args = (members, dict.fromkeys(members, (1, 2)))
    fresh = unanimous_reports(*args)
    for me in members:
        reports = unanimous_reports(*args)
        reports[me].clear()
        for other in members:
            if other != me:
                assert reports[other] == fresh[other]
        assert reports[me] != fresh[me]
    assert len({id(r) for r in fresh.values()}) == len(members)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(comparisons())
def test_unanimous_reports_only_where_the_general_path_agrees(case):
    _, members, written_at, deadline_at, rows, blocked = case
    reports = unanimous_reports(members, rows, blocked)
    if reports is not None:
        assert ({me: (reports[me], written_at) for me in members}
                == {me: compare_with_siblings(me, *case[1:]) for me in members})


def test_vote_three_identical():
    result = vote_outputs({t: 77 for t in ("C0", "C1", "C2")})
    assert result.divergent == []
    assert not result.no_majority


def test_vote_two_versus_one():
    result = vote_outputs({"C0": 77, "C1": 77, "C2": 5})
    assert result.divergent == ["C2"]
    assert not result.no_majority


def test_vote_no_majority_suppresses():
    result = vote_outputs({"C0": 1, "C1": 2, "C2": 3})
    assert result.no_majority
    assert sorted(result.divergent) == ["C0", "C1", "C2"]


def test_vote_pair_split_has_no_majority():
    result = vote_outputs({"C0": 1, "C1": 2})
    assert result.no_majority

