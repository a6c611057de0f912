from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.lockstep import (
    AGREE, DISAGREE, MISS, compare_with_siblings, unanimous_reports, vote_outputs,
)
from tilesim.supervisor import arbitrate


def test_all_agree():
    rows = {t: (7,) for t in ("C0", "C1", "C2")}
    verdicts, completed_at = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 24, "C2": 24}, 100, rows)
    assert verdicts == {"C1": AGREE, "C2": AGREE}
    assert completed_at == 24


def test_faulty_sibling_detected_and_comparison_stops():
    # the corrupt member disagrees with its first sibling and stops, so the
    # remaining sibling gets no verdict at all
    rows = {"C0": (7,), "C1": (7,), "C2": (9,)}
    written = {"C0": 24, "C1": 24, "C2": 24}
    healthy, _ = compare_with_siblings("C0", ["C0", "C1", "C2"], written, 100, rows)
    assert healthy == {"C1": AGREE, "C2": DISAGREE}
    corrupt, _ = compare_with_siblings("C2", ["C0", "C1", "C2"], written, 100, rows)
    assert corrupt == {"C0": DISAGREE}


def test_stop_on_first_mismatch_in_ready_order():
    # C1 becomes ready before C2; the mismatch with C1 halts comparison
    rows = {"C0": (7,), "C1": (8,), "C2": (7,)}
    verdicts, completed_at = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 20, "C1": 30, "C2": 40}, 100, rows)
    assert verdicts == {"C1": DISAGREE}
    assert completed_at == 30


def test_deadline_miss():
    rows = {"C0": (7,), "C1": (7,)}
    verdicts, completed_at = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 30}, 100, rows)
    assert verdicts == {"C1": AGREE, "C2": MISS}
    assert completed_at == 100


def test_blocked_reads_miss_everyone_but_stop_after_first():
    rows = {t: (7,) for t in ("C0", "C1", "C2")}
    verdicts, _ = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 24, "C2": 24}, 100, rows,
        reads_blocked=True)
    assert verdicts == {"C1": MISS}


def test_multi_thread_agreement_needs_all():
    rows = {"C0": (1, 2), "C1": (1, 99)}
    verdicts, _ = compare_with_siblings("C0", ["C0", "C1"], {"C0": 24, "C1": 24}, 100, rows)
    assert verdicts == {"C1": DISAGREE}


def test_missing_own_entry_disagrees_even_with_an_equal_row():
    # a row lost from my validation memory cannot vouch for anything, even
    # to a sibling whose row is lost too
    rows = {"C0": None, "C1": None, "C2": (1, 5)}
    verdicts, _ = compare_with_siblings(
        "C0", ["C0", "C1", "C2"], {"C0": 24, "C1": 24, "C2": 24}, 100, rows)
    assert verdicts == {"C1": DISAGREE}


def test_no_checked_thread_agrees():
    rows = {"C0": (), "C1": ()}
    verdicts, _ = compare_with_siblings("C0", ["C0", "C1"], {"C0": 24, "C1": 24}, 100, rows)
    assert verdicts == {"C1": AGREE}


def reference_compare_with_siblings(me, members, written_at, deadline_at, rows,
                                    reads_blocked=False):
    """The reference comparison, kept as it was before the sort went plain:
    a per-sibling max() and a sort keyed on (time, rotation) alone."""
    my_ready = written_at[me]
    my_pos = members.index(me)
    n = len(members)
    order = []
    for pos, sib in enumerate(members):
        if sib == me:
            continue
        if not reads_blocked and sib in written_at:
            when = max(my_ready, written_at[sib])
            ready = when <= deadline_at
            if not ready:
                when = deadline_at
        else:
            ready = False
            when = deadline_at
        order.append((when, (pos - my_pos) % n, sib, ready))
    order.sort(key=lambda item: (item[0], item[1]))

    mine = rows[me]
    mine_whole = mine is not None
    verdicts = {}
    completed = my_ready
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
    me) has written, at times drawn from a narrow range so that ties are
    common; rows of up to 3 entries from a small alphabet, some rows
    missing (None); reads blocked or not."""
    tiles = [f"C{i}" for i in range(8)]
    members = draw(st.permutations(tiles))[:draw(st.integers(1, 8))]
    me = draw(st.sampled_from(members))
    times = st.integers(0, 40)
    written_at = {m: draw(times) for m in members if m == me or draw(st.booleans())}
    width = draw(st.integers(0, 3))
    entry = st.integers(0, 2)
    row = st.one_of(st.none(), st.tuples(*[entry] * width))
    rows = {w: draw(row) for w in written_at}
    return me, members, written_at, draw(times), rows, draw(st.booleans())


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(comparisons())
def test_compare_with_siblings_matches_reference(case):
    got = compare_with_siblings(*case)
    want = reference_compare_with_siblings(*case)
    assert got == want
    assert list(got[0]) == list(want[0])  # same comparison order


@st.composite
def wide_comparisons(draw):
    """9-24 members in any order, who write together at one time, but for
    up to three that never write and up to two that write later, some past
    the deadline; a deadline at or after the common write; one row that
    every writer holds, but for one or two odd rows, changed or missing."""
    tiles = [f"C{i}" for i in range(24)]
    members = draw(st.permutations(tiles))[:draw(st.integers(9, 24))]
    me = draw(st.sampled_from(members))
    at = draw(st.integers(0, 40))
    deadline_at = draw(st.integers(at, at + 10))
    silent = draw(st.lists(st.sampled_from(members), max_size=3))
    written_at = {m: at for m in members if m == me or m not in silent}
    for m in draw(st.lists(st.sampled_from(members), max_size=2)):
        if m in written_at:
            written_at[m] = draw(st.integers(at + 1, deadline_at + 5))
    row = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    rows = dict.fromkeys(written_at, row)
    for m in draw(st.lists(st.sampled_from(sorted(written_at)), max_size=2)):
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
    """1-24 members in any order, each written at or before the deadline,
    and one row of up to 3 entries that every member holds."""
    tiles = [f"C{i}" for i in range(24)]
    members = draw(st.permutations(tiles))[:draw(st.integers(1, 24))]
    deadline_at = draw(st.integers(0, 40))
    written_at = {m: draw(st.integers(0, deadline_at)) for m in members}
    row = tuple(draw(st.lists(st.integers(0, 2), max_size=3)))
    return members, written_at, deadline_at, {m: row for m in members}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(unanimous_rounds(), st.data())
def test_unanimous_reports_equal_the_general_path(case, data):
    members, written_at, deadline_at, rows = case
    reports, completed_at = unanimous_reports(*case)
    assert ({me: (reports[me], completed_at) for me in members}
            == {me: compare_with_siblings(me, *case) for me in members})
    verdict = arbitrate(members, reports)
    assert verdict.all_agree and verdict.clique == members

    # each way of breaking unanimity leaves the round to the general path
    me = data.draw(st.sampled_from(members))
    row = rows[me]
    wiped = dict.fromkeys(members)
    assert unanimous_reports(members, written_at, deadline_at, wiped) is None
    if len(members) > 1:
        assert unanimous_reports(members, written_at, deadline_at,
                                 {**rows, me: row + (0,)}) is None
    missing = {m: t for m, t in written_at.items() if m != me}
    assert unanimous_reports(members, missing, deadline_at, rows) is None
    late = {**written_at, me: deadline_at + 1}
    assert unanimous_reports(members, late, deadline_at, rows) is None
    assert unanimous_reports(*case, reads_blocked=True) is None


def test_unanimous_reports_own_their_verdicts():
    members = ["C0", "C1", "C2", "C3"]
    args = (members, dict.fromkeys(members, 5), 10, dict.fromkeys(members, (1, 2)))
    fresh, _ = unanimous_reports(*args)
    for me in members:
        reports, _ = unanimous_reports(*args)
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
    unanimous = unanimous_reports(members, written_at, deadline_at, rows, blocked)
    if unanimous is not None:
        reports, completed_at = unanimous
        assert ({me: (reports[me], completed_at) for me in members}
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

