import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.engine import MASK64, mix64
from tilesim.lockstep import vote_outputs
from tilesim.workload import (
    CHECKSUM_SEED, MIX_MULT, MIX_TAG, ThreadIdMismatch, ThreadSpec, ThreadState,
    checksum_callback, execute_slice, flip_bits, init_thread, update_callback,
)


def spec(tid="Ta", words=4, wpt=1, emits=False):
    return ThreadSpec(thread_id=tid, criticality=5, checkpoint_period=1000,
                      state_words=words, work_per_tick=wpt, emits_output=emits)


# -- init -------------------------------------------------------------------

def test_init_identical_on_every_tile():
    s = spec()
    assert init_thread(s) == init_thread(s)


def test_state_cannot_be_changed_in_place():
    # replicas may hold one state object, so no write may reach it
    ts = init_thread(spec())
    with pytest.raises(TypeError):
        ts.state[0] ^= 1
    with pytest.raises(AttributeError):
        ts.cycle_counter = 5
    assert ts == init_thread(spec())


def test_flip_bits_returns_a_new_state():
    ts = execute_slice(init_thread(spec()), 9)
    flipped = flip_bits(ts, 3, [1 << 5, 0xFF])
    # the second mask wraps around to word 0
    assert flipped.state == (ts.state[0] ^ 0xFF, ts.state[1], ts.state[2],
                             ts.state[3] ^ (1 << 5))
    assert flipped.cycle_counter == ts.cycle_counter and flipped.spec is ts.spec
    assert ts == execute_slice(init_thread(spec()), 9)
    assert flip_bits(ts, 0, [1 << 64 | 1]).state[0] == ts.state[0] ^ 1


def test_init_word_count():
    assert len(init_thread(spec(words=4)).state) == 4
    assert len(init_thread(spec(words=9)).state) == 9


def test_init_separates_thread_ids():
    a = init_thread(spec("Ta"))
    b = init_thread(spec("Tb"))
    assert a.state != b.state


# -- execution --------------------------------------------------------------

def test_zero_ticks_is_identity():
    ts = init_thread(spec())
    assert execute_slice(ts, 0).state == ts.state


def test_replicas_stay_equal():
    a = init_thread(spec(wpt=5))
    b = init_thread(spec(wpt=5))
    for ticks in (50, 125, 10, 5):
        a = execute_slice(a, ticks)
        b = execute_slice(b, ticks)
        assert a.state == b.state
        assert a.cycle_counter == b.cycle_counter


def test_single_bit_flip_stays_diverged():
    healthy = init_thread(spec())
    flipped = flip_bits(init_thread(spec()), 2, [1 << 17])
    for _ in range(20):
        healthy = execute_slice(healthy, 10)
        flipped = execute_slice(flipped, 10)
        assert healthy.state != flipped.state


def naive_slice(state, cycles):
    # the documented step, one cycle at a time: w_i <- MIX_MULT*w_i + c_i
    words = list(state)
    for _ in range(cycles):
        words = [(MIX_MULT * w + (2 * i + 1) * MIX_TAG) & MASK64
                 for i, w in enumerate(words)]
    return words


def test_jump_matches_per_cycle_step():
    ts = init_thread(spec(words=5))
    for cycles in range(65):
        assert list(execute_slice(ts, cycles).state) == naive_slice(ts.state, cycles)


def test_slices_of_two_widths_at_one_cycle_count_stay_apart():
    # the jump cache is keyed by cycle count and width: a 1-word and a
    # 6-word thread advanced by the same cycles each match the step
    for cycles in (1, 7, 1000):
        for words in (1, 6, 1):
            ts = init_thread(spec(words=words))
            assert list(execute_slice(ts, cycles).state) == naive_slice(ts.state, cycles)


@pytest.mark.parametrize("wpt", [1, 7])
@pytest.mark.parametrize("first,second", [(0, 13), (5, 64), (100, 37),
                                          (2**40 + 3, 2**33 + 1)])
def test_split_advance_equals_one_advance(wpt, first, second):
    # ticks are whole cycles here, so the split loses no remainder; the
    # 2**40-cycle cases also show the cost does not grow with cycles
    ts = init_thread(spec(words=6, wpt=wpt))
    whole = execute_slice(ts, (first + second) * wpt)
    split = execute_slice(execute_slice(ts, first * wpt), second * wpt)
    assert whole == split
    assert whole.cycle_counter == first + second


def test_input_state_is_not_changed():
    ts = init_thread(spec())
    execute_slice(ts, 50)
    assert ts == init_thread(spec()) and ts.cycle_counter == 0


def test_negative_ticks_rejected():
    with pytest.raises(ValueError):
        execute_slice(init_thread(spec()), -1)


def test_top_bit_flip_stays_diverged():
    # an odd multiplier keeps a difference at bit b only in bits >= b, so a
    # flip of bit 63 is the case that could most easily be lost
    healthy = init_thread(spec(words=4))
    flipped = flip_bits(init_thread(spec(words=4)), 0, [1 << 63] * 4)
    for ticks in (1, 2, 63, 1000, 2**40 + 3):
        healthy = execute_slice(healthy, ticks)
        flipped = execute_slice(flipped, ticks)
        assert all(h != f for h, f in zip(healthy.state, flipped.state))


# -- lazy words ---------------------------------------------------------------
# A state owes its words a lag of cycles until something reads them. Every
# observable result must be what stepping one cycle at a time gives.

def reference_checksum(words, cycle):
    h = CHECKSUM_SEED
    for w in (*words, cycle):
        h = mix64(h ^ w)
    return h


@st.composite
def lazy_programs(draw):
    # mostly the first states or the latest ones, so that paths meet: two
    # states of equal words often got there by different advances and reads
    index = st.one_of(st.integers(0, 2), st.integers(-3, -1), st.integers(0, 63))
    ticks = st.one_of(st.integers(0, 3), st.integers(0, 40))
    mask = st.one_of(st.sampled_from([0, 1, 1 << 63, 0xFF]), st.integers(0, MASK64))
    ops = st.one_of(
        st.tuples(st.just("advance"), index, ticks),
        st.tuples(st.just("flip"), index, st.integers(0, 7), mask),
        st.tuples(st.just("read"), index),
        st.tuples(st.just("checksum"), index),
        st.tuples(st.just("eq"), index, index),
    )
    return draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.lists(ops, max_size=40))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(lazy_programs())
def test_lazy_state_matches_per_cycle_stepping(program):
    words, wpt, ops = program
    s = spec(words=words, wpt=wpt)
    # two initial states that share their anchor words but not their object
    pool = [init_thread(s), init_thread(s)]
    refs = [(pool[0].state, 0)] * 2          # (words, cycle counter) per state
    for op, i, *args in ops:
        i %= len(pool)   # a negative index counts from the latest state
        ts, (ref_words, ref_cycle) = pool[i], refs[i]
        if op == "advance":
            cycles = args[0] // wpt
            pool.append(execute_slice(ts, args[0]))
            refs.append((tuple(naive_slice(ref_words, cycles)), ref_cycle + cycles))
        elif op == "flip":
            word, mask = args
            flipped = list(ref_words)
            flipped[word % words] ^= mask
            pool.append(flip_bits(ts, word, [mask]))
            refs.append((tuple(flipped), ref_cycle))
        elif op == "read":
            assert ts.state == ref_words
            # the read re-anchors the state at its words, owing nothing
            assert (ts.anchor, ts.lag) == (ref_words, 0)
        elif op == "checksum":
            assert checksum_callback(ts) == reference_checksum(ref_words, ref_cycle)
        else:
            j = args[0] % len(pool)
            same = refs[i] == refs[j]
            assert (ts == pool[j]) is same and (ts != pool[j]) is not same
            if same:
                assert hash(ts) == hash(pool[j])
        assert ts.cycle_counter == ref_cycle
    # every pair, before the last reads: many are equal by different paths
    for i, ts in enumerate(pool):
        for j in range(i):
            assert (ts == pool[j]) is (refs[i] == refs[j])
    for ts, (ref_words, ref_cycle) in zip(pool, refs):
        assert (ts.state, ts.cycle_counter) == (ref_words, ref_cycle)


def test_cycle_count_follows_work_per_tick():
    ts = init_thread(spec(wpt=25))
    assert execute_slice(ts, 100).cycle_counter == 4
    assert execute_slice(ts, 99).cycle_counter == 3


# -- checksum ---------------------------------------------------------------

def test_checksum_golden_seed_fold():
    # frozen from an independent evaluation of the documented fold:
    # h = mix64(seed ^ word0); result = mix64(h ^ cycle), with mix64 the
    # splitmix64 finalizer
    ts = ThreadState(spec=spec(words=1), state=(0,), cycle_counter=0)
    assert checksum_callback(ts) == 0x47C655395B457103


def test_checksum_is_the_mix64_fold():
    # the documented fold, with `mix64` called per word as the reference
    # for the finalizer written out inside `checksum_callback`
    def fold(ts):
        h = CHECKSUM_SEED
        for w in ts.state:
            h = mix64(h ^ w)
        return mix64(h ^ ts.cycle_counter)

    for words in (1, 4, 6):
        ts = init_thread(spec(words=words))
        for ticks in (0, 3, 1 << 40):
            ts = flip_bits(execute_slice(ts, ticks), 0, [1 << 63])
            assert checksum_callback(ts) == fold(ts)


def test_equal_states_equal_checksums():
    a = execute_slice(init_thread(spec()), 40)
    b = execute_slice(init_thread(spec()), 40)
    assert checksum_callback(a) == checksum_callback(b)


def test_all_single_bit_flips_detected():
    # exhaustive: every single-bit corruption of a 4-word state must change
    # the checksum, and all 256 corrupted checksums must be distinct
    base = execute_slice(init_thread(spec()), 17)
    clean = checksum_callback(base)
    seen = set()
    for word in range(4):
        for bit in range(64):
            c = checksum_callback(flip_bits(base, word, [1 << bit]))
            assert c != clean
            seen.add(c)
    assert len(seen) == 256


def test_cycle_counter_affects_checksum():
    a = init_thread(spec())
    b = ThreadState(spec=a.spec, state=a.state, cycle_counter=1)
    assert checksum_callback(a) != checksum_callback(b)


# -- update -----------------------------------------------------------------

def test_snapshot_roundtrip_reproduces_checksum():
    donor = execute_slice(init_thread(spec()), 33)
    stale = init_thread(spec())
    updated = update_callback(stale, donor)
    assert checksum_callback(updated) == checksum_callback(donor)


def test_snapshots_are_honest():
    # a corrupted donor passes its corruption on: the update does not
    # repair or re-derive the state it copies
    corrupted = flip_bits(init_thread(spec()), 0, [0xFF])
    updated = update_callback(init_thread(spec()), corrupted)
    assert updated.state == corrupted.state
    assert updated.cycle_counter == corrupted.cycle_counter


def test_self_update_is_identity():
    ts = execute_slice(init_thread(spec()), 12)
    assert update_callback(ts, ts) == ts


def test_update_rejects_wrong_thread():
    a = init_thread(spec("Ta"))
    b = init_thread(spec("Tb"))
    with pytest.raises(ThreadIdMismatch):
        update_callback(a, b)


def test_recovered_replica_matches_group():
    # the replaced tile takes a donor's state and then tracks the group:
    # C3 updated from C1 must checksum-match C0 at the next checkpoint
    c0 = execute_slice(init_thread(spec()), 200)
    c1 = execute_slice(init_thread(spec()), 200)
    c3 = update_callback(init_thread(spec()), c1)
    c0 = execute_slice(c0, 100)
    c3 = execute_slice(c3, 100)
    assert checksum_callback(c0) == checksum_callback(c3)


# -- output -----------------------------------------------------------------
# A replica's output, as the checkpoint votes on it, is its checksum.

def test_healthy_replicas_emit_identical_records():
    states = {t: execute_slice(init_thread(spec(emits=True)), 30) for t in ("C0", "C1")}
    result = vote_outputs({t: checksum_callback(ts) for t, ts in states.items()})
    assert result.divergent == [] and not result.no_majority


def test_corrupted_replica_emits_divergent_record():
    states = {t: execute_slice(init_thread(spec(emits=True)), 30) for t in ("C0", "C1", "C2")}
    states["C1"] = flip_bits(states["C1"], 1, [1 << 5])
    result = vote_outputs({t: checksum_callback(ts) for t, ts in states.items()})
    assert result.divergent == ["C1"]
