import pytest

from tilesim.engine import EventQueue, PastTimeError, RandomStream


def timer():
    pass


def late():
    pass


def test_single_event_dispatch():
    q = EventQueue()
    q.schedule(5, timer, "G1", 3)
    fire_at, _, handler, args = q.advance()
    assert (fire_at, handler, args) == (5, timer, ("G1", 3))
    assert q.now == 5


def test_tie_break_is_insertion_order():
    q = EventQueue()
    q.schedule(7, timer, "first")
    q.schedule(7, timer, "second")
    assert q.advance()[3] == ("first",)
    assert q.advance()[3] == ("second",)


def test_schedule_in_past_rejected():
    q = EventQueue()
    q.schedule(3, timer)
    q.advance()
    with pytest.raises(PastTimeError, match="late"):
        q.schedule(2, late)


def test_empty_queue_end_of_simulation():
    q = EventQueue()
    q.schedule(4, timer)
    q.advance()
    assert q.advance() is None
    assert q.now == 4  # clock unchanged on end


def test_earliest_first():
    q = EventQueue()
    q.schedule(9, late)
    q.schedule(4, timer)
    assert q.advance()[:3] == [4, 1, timer]
    assert q.now == 4


def test_cancelled_entry_skipped():
    q = EventQueue(until=9)
    entry = q.schedule(4, timer, "cancelled")
    q.schedule(9, timer, "live")
    q.cancel(entry)
    q.cancel(None)
    assert entry[2] is None
    assert q.advance()[3] == ("live",)  # an entry at the bound is handed out
    assert q.now == 9
    assert q.advance() is None


def test_live_entry_past_until_stays_queued():
    q = EventQueue(until=10)
    q.schedule(3, timer, "early")
    entry = q.schedule(11, late, "past")
    assert q.advance()[3] == ("early",)
    assert q.advance() is None
    assert q.now == 3  # the clock stays where the last live entry put it
    assert entry[:3] == [11, 1, late]
    assert q.advance() is None  # and asking again changes nothing
    q.until = 11
    assert q.advance() is entry
    assert q.now == 11


def test_cancelled_entries_on_both_sides_of_until():
    q = EventQueue(until=10)
    before = q.schedule(5, timer, "cancelled-before")
    q.schedule(8, timer, "live")
    after = q.schedule(12, timer, "cancelled-after")
    beyond = q.schedule(15, late, "past")
    q.cancel(before)
    q.cancel(after)
    assert q.advance()[3] == ("live",)
    # the cancelled entry past the bound is dropped, the live one kept
    assert q.advance() is None
    assert q.now == 8
    assert beyond[2] is late
    q.until = 20
    assert q.advance() is beyond
    assert q.advance() is None
    assert q.now == 15


def test_clock_monotone_over_many_events():
    q = EventQueue()
    rng = RandomStream(3, "t")
    for _ in range(500):
        q.schedule(rng.uniform_range(0, 10_000), timer)
    last = 0
    while (ev := q.advance()) is not None:
        assert ev[0] >= last
        last = ev[0]


def test_same_seed_same_sequence():
    a = RandomStream(1, "faults")
    b = RandomStream(1, "faults")
    assert [a.uniform64() for _ in range(100)] == [b.uniform64() for _ in range(100)]


def test_different_labels_differ():
    a = RandomStream(1, "faults")
    b = RandomStream(1, "workload")
    assert [a.uniform64() for _ in range(10)] != [b.uniform64() for _ in range(10)]


def test_stream_independence():
    a1, b1 = RandomStream(9, "a"), RandomStream(9, "b")
    b2 = RandomStream(9, "b")
    # extra draws on stream A must not perturb stream B
    for _ in range(137):
        a1.uniform64()
    assert [b1.uniform64() for _ in range(50)] == [b2.uniform64() for _ in range(50)]


def test_exponential_mean_matches_rate():
    # law of large numbers: sample mean of Exp(rate) approaches 1/rate
    rng = RandomStream(7, "exp")
    rate = 1 / 250.0
    n = 100_000
    mean = sum(rng.exponential(rate) for _ in range(n)) / n
    assert abs(mean - 250.0) / 250.0 < 0.02


def test_exponential_rejects_bad_rate():
    rng = RandomStream(7, "exp")
    with pytest.raises(ValueError):
        rng.exponential(0)
    with pytest.raises(ValueError):
        rng.exponential(-1.5)


def test_uniform_range_degenerate():
    rng = RandomStream(7, "u")
    assert rng.uniform_range(5, 5) == 5


def test_uniform_range_bounds():
    rng = RandomStream(7, "u")
    values = {rng.uniform_range(2, 6) for _ in range(500)}
    assert values == {2, 3, 4, 5, 6}
