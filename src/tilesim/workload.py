"""Synthetic replicated application threads.

A thread's observable state is a small vector of 64-bit words. One work
cycle applies to word i the affine step

    f_i(w) = MIX_MULT * w + c_i  (mod 2**64),  c_i = (2i + 1) * MIX_TAG

so replicas stay bit-identical until something corrupts one of them:

- MIX_MULT is odd, so each f_i is a bijection and two words that differ
  never converge again;
- MIX_MULT = 1 (mod 4) and every c_i is odd, so by the Hull-Dobell theorem
  each word runs through the full period 2**64.

Because the step is affine, k cycles compose into one affine map
w -> A_k * w + S_k * c_i, found in O(log k) by square-and-multiply (the LCG
skip-ahead), and split advances are exact: f^a after f^b is f^(a+b).

The step itself does not avalanche: a flip at bit b changes only bits >= b.
The avalanche that makes any corruption visible comes from
`checksum_callback`, which folds every word through the splitmix64
finalizer (`engine.mix64`, written out inline there).

A `ThreadState` is a value: nothing changes it after it is built.
`execute_slice` and `flip_bits` return a new state and `update_callback`
hands back the donor's, so a checkpoint memo, a round's validation memory
and the oracle can all hold one state without copying it, and a fault on
one replica cannot reach another. `flip_bits` is the only code that knows
how a fault lands in the state words.

The words are worked out only when something reads them. `execute_slice`
jumps nothing: its state holds the words it was advanced from (its anchor)
and the cycles it still owes them (its lag). The first read of `.state`
makes the one jump and caches the words as the new anchor, lag 0. The
first read of `.checksum` calls `checksum_callback` and caches its result
on the state, the only checksum cache there is. Neither cache changes the
state's value. `flip_bits` and `checksum_callback` read `.state`; equality
does not need to, since equal lags leave equal words exactly when the
anchors are equal. Replicas that no fault hit hold one state object, so a
fault-free run makes no jump and takes no checksum at all.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

from .engine import MASK64, mix64

# checksum fold seed
CHECKSUM_SEED = 0xC0F5E11DC0DEF00D

# affine step parameters (see the module docstring)
MIX_MULT = 0x2545F4914F6CDD1D
MIX_TAG = 0x9E3779B97F4A7C15


class ThreadIdMismatch(ValueError):
    """A donor state was applied to a thread it does not belong to."""


@dataclass(frozen=True)
class ThreadSpec:
    thread_id: str = field(metadata={"key": "id"})     # "id" in scenario files
    criticality: int
    checkpoint_period: int
    state_words: int = 4
    work_per_tick: int = 1
    emits_output: bool = False
    viable_delay: int = 0      # checkpoint deferral while the thread reaches a stable point
    checksum_cost: int = 10
    sync_cost: int = 10
    update_cost: int = 10

    def __post_init__(self):
        if self.state_words < 1:
            raise ValueError(f"{self.thread_id}: state_words must be >= 1")
        if self.checkpoint_period <= 0:
            raise ValueError(f"{self.thread_id}: checkpoint_period must be > 0")
        if self.work_per_tick < 1:
            raise ValueError(f"{self.thread_id}: work_per_tick must be >= 1")


# A run advances by only a few distinct cycle counts and state widths, so a
# small bounded cache skips most of the square-and-multiply.
@functools.lru_cache(maxsize=256)
def _jump_words(cycles: int, words: int) -> tuple[int, tuple[int, ...]]:
    """(A, (S * c_0, ..., S * c_{words-1})) with f_i^cycles(w) = A * w + S * c_i
    (mod 2**64), for the first `words` words.

    Square-and-multiply over affine pairs, where applying (A, S) and then
    (a, s) gives (A * a, S * a + s).
    """
    mult, inc = 1, 0
    step_mult, step_inc = MIX_MULT, 1
    while cycles:
        if cycles & 1:
            mult, inc = (mult * step_mult) & MASK64, (inc * step_mult + step_inc) & MASK64
        step_mult, step_inc = (step_mult * step_mult) & MASK64, (step_inc * (step_mult + 1)) & MASK64
        cycles >>= 1
    inc *= MIX_TAG
    return mult, tuple([(inc * (2 * i + 1)) & MASK64 for i in range(words)])


class ThreadState:
    """A thread's state words and cycle counter, as a value.

    It holds its anchor words and the cycles it still owes them (its lag),
    not the words themselves: see the module docstring. `spec`,
    `cycle_counter` and the words read from `state` never change, and
    neither does `checksum`.
    """

    __slots__ = ("_spec", "_cycle_counter", "_anchor", "_lag", "_checksum")

    def __init__(self, spec: ThreadSpec, state: tuple[int, ...], cycle_counter: int = 0):
        self._spec = spec
        self._anchor = tuple(state)
        self._lag = 0
        self._cycle_counter = cycle_counter
        self._checksum: Optional[int] = None   # set by the first read of `checksum`

    # read-only views, fetched in C: the simulation reads them in every advance
    spec = property(attrgetter("_spec"))
    cycle_counter = property(attrgetter("_cycle_counter"))
    # Equal (anchor, lag, cycle_counter) of one thread mean equal states, so
    # a memo can key by them without a jump. A read of `state` re-anchors
    # the state at its words, lag 0: the same value under another key.
    anchor = property(attrgetter("_anchor"))
    lag = property(attrgetter("_lag"))

    @property
    def checksum(self) -> int:
        """`checksum_callback` of this state, called on the first read only."""
        checksum = self._checksum
        if checksum is None:
            checksum = self._checksum = checksum_callback(self)
        return checksum

    @property
    def state(self) -> tuple[int, ...]:
        """The state words. The first read after an advance makes its one
        jump and re-anchors the state at the result."""
        if self._lag:
            mult, incs = _jump_words(self._lag, len(self._anchor))
            self._anchor = tuple([(mult * w + c) & MASK64 for w, c in zip(self._anchor, incs)])
            self._lag = 0
        return self._anchor

    def __eq__(self, other):
        if other.__class__ is not ThreadState:
            return NotImplemented
        if self is other:
            return True
        if (self._cycle_counter != other._cycle_counter
                or (self._spec is not other._spec and self._spec != other._spec)):
            return False
        if self._lag == other._lag:
            # each step is a bijection, so equal lags keep words apart or equal
            return self._anchor == other._anchor
        return self.state == other.state

    def __hash__(self):
        return hash((self._spec, self.state, self._cycle_counter))

    def __repr__(self):
        return (f"ThreadState(spec={self._spec!r}, state={self.state!r}, "
                f"cycle_counter={self._cycle_counter!r})")


def init_thread(spec: ThreadSpec) -> ThreadState:
    """Build the initial state for a thread replica.

    The state depends on the thread id alone, so every replica starts
    bit-identical.
    """
    digest = hashlib.blake2b(spec.thread_id.encode(), digest_size=8).digest()
    base = int.from_bytes(digest, "little")
    words = tuple([mix64((base + k) & MASK64) for k in range(spec.state_words)])
    return ThreadState(spec=spec, state=words, cycle_counter=0)


def execute_slice(ts: ThreadState, ticks: int) -> ThreadState:
    """Advance the thread by floor(ticks / work_per_tick) work cycles.

    Costs O(1): the cycles are added to the state's lag, which the first
    read of its words pays off in one jump of O(state_words + log cycles).
    """
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    spec = ts._spec
    cycles = ticks // spec.work_per_tick
    ahead = ThreadState(spec, ts._anchor, ts._cycle_counter + cycles)
    ahead._lag = ts._lag + cycles
    return ahead


def flip_bits(ts: ThreadState, word: int, masks: Iterable[int]) -> ThreadState:
    """`ts` with `masks[k]` XORed into state word `word + k`, wrapping
    around the end of the state: the corruption a fault leaves."""
    words = list(ts.state)
    for k, mask in enumerate(masks):
        words[(word + k) % len(words)] ^= mask & MASK64
    return ThreadState(ts.spec, tuple(words), ts.cycle_counter)


def checksum_callback(ts: ThreadState) -> int:
    """64-bit fold over the state words and cycle counter.

    Each word, and then the cycle counter, is absorbed through the
    full-avalanche `mix64` so that single-bit corruption anywhere in the
    state changes the result. The finalizer is written out here, which
    saves a call per word.
    """
    h = CHECKSUM_SEED
    for w in (*ts.state, ts.cycle_counter):
        z = h ^ w
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        h = z ^ (z >> 31)
    return h


def update_callback(target: ThreadState, donor: ThreadState) -> ThreadState:
    """The state `target` takes from a sibling's copy `donor` of its thread."""
    if donor.spec.thread_id != target.spec.thread_id:
        raise ThreadIdMismatch(
            f"state of {donor.spec.thread_id!r} applied to {target.spec.thread_id!r}"
        )
    return donor
