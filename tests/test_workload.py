import pytest

from tilesim.engine import MASK64
from tilesim.workload import (
    MIX_MULT, MIX_TAG, OutputRecord, ThreadIdMismatch, ThreadSpec, ThreadState,
    checksum_callback, emit_output, execute_slice, init_thread, sync_callback,
    update_callback,
)


def spec(tid="Ta", words=4, wpt=1, emits=False):
    return ThreadSpec(thread_id=tid, criticality=5, checkpoint_period=1000,
                      state_words=words, work_per_tick=wpt, emits_output=emits)


# -- init -------------------------------------------------------------------

def test_init_identical_on_every_tile():
    # each tile builds its replica with its own call: equal states, but
    # never one shared list that a fault on one tile would corrupt on all
    s = spec()
    a, b = init_thread(s), init_thread(s)
    assert a == b
    assert a.state is not b.state


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
    flipped = init_thread(spec())
    flipped.state[2] ^= 1 << 17
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
        assert execute_slice(ts, cycles).state == naive_slice(ts.state, cycles)


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
    before = list(ts.state)
    execute_slice(ts, 50)
    assert ts.state == before and ts.cycle_counter == 0


def test_negative_ticks_rejected():
    with pytest.raises(ValueError):
        execute_slice(init_thread(spec()), -1)


def test_top_bit_flip_stays_diverged():
    # an odd multiplier keeps a difference at bit b only in bits >= b, so a
    # flip of bit 63 is the case that could most easily be lost
    healthy = init_thread(spec(words=4))
    flipped = init_thread(spec(words=4))
    flipped.state = [w ^ (1 << 63) for w in flipped.state]
    for ticks in (1, 2, 63, 1000, 2**40 + 3):
        healthy = execute_slice(healthy, ticks)
        flipped = execute_slice(flipped, ticks)
        assert all(h != f for h, f in zip(healthy.state, flipped.state))


def test_cycle_count_follows_work_per_tick():
    ts = init_thread(spec(wpt=25))
    assert execute_slice(ts, 100).cycle_counter == 4
    assert execute_slice(ts, 99).cycle_counter == 3


# -- checksum ---------------------------------------------------------------

def test_checksum_golden_seed_fold():
    # frozen from an independent evaluation of the documented fold:
    # h = mix64(seed ^ word0); result = mix64(h ^ cycle), with mix64 the
    # splitmix64 finalizer
    ts = ThreadState(spec=spec(words=1), state=[0], cycle_counter=0)
    assert checksum_callback(ts) == 0x47C655395B457103


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
            mutated = ThreadState(spec=base.spec, state=list(base.state),
                                  cycle_counter=base.cycle_counter)
            mutated.state[word] ^= 1 << bit
            c = checksum_callback(mutated)
            assert c != clean
            seen.add(c)
    assert len(seen) == 256


def test_cycle_counter_affects_checksum():
    a = init_thread(spec())
    b = ThreadState(spec=a.spec, state=list(a.state), cycle_counter=1)
    assert checksum_callback(a) != checksum_callback(b)


# -- sync / update ----------------------------------------------------------

def test_snapshot_roundtrip_reproduces_checksum():
    donor = execute_slice(init_thread(spec()), 33)
    stale = init_thread(spec())
    updated = update_callback(stale, sync_callback(donor))
    assert checksum_callback(updated) == checksum_callback(donor)


def test_snapshots_are_honest():
    corrupted = init_thread(spec())
    corrupted.state[0] ^= 0xFF
    snap = sync_callback(corrupted)
    assert snap.state == tuple(corrupted.state)
    assert snap.cycle_counter == corrupted.cycle_counter


def test_self_update_is_identity():
    ts = execute_slice(init_thread(spec()), 12)
    again = update_callback(ts, sync_callback(ts))
    assert again.state == ts.state
    assert again.cycle_counter == ts.cycle_counter


def test_update_rejects_wrong_thread():
    a = init_thread(spec("Ta"))
    b = init_thread(spec("Tb"))
    with pytest.raises(ThreadIdMismatch):
        update_callback(a, sync_callback(b))


def test_recovered_replica_matches_group():
    # the replaced tile pulls a donor snapshot and then tracks the group:
    # C3 updated from C1 must checksum-match C0 at the next checkpoint
    c0 = execute_slice(init_thread(spec()), 200)
    c1 = execute_slice(init_thread(spec()), 200)
    c3 = update_callback(init_thread(spec()), sync_callback(c1))
    c0 = execute_slice(c0, 100)
    c3 = execute_slice(c3, 100)
    assert checksum_callback(c0) == checksum_callback(c3)


# -- output -----------------------------------------------------------------

def test_no_output_when_disabled():
    ts = init_thread(spec(emits=False))
    assert emit_output(ts) is None


def test_healthy_replicas_emit_identical_records():
    a = execute_slice(init_thread(spec(emits=True)), 30)
    b = execute_slice(init_thread(spec(emits=True)), 30)
    assert emit_output(a) == emit_output(b)


def test_corrupted_replica_emits_divergent_record():
    a = execute_slice(init_thread(spec(emits=True)), 30)
    b = execute_slice(init_thread(spec(emits=True)), 30)
    b.state[1] ^= 1 << 5
    ra, rb = emit_output(a), emit_output(b)
    assert isinstance(ra, OutputRecord)
    assert ra.digest != rb.digest
