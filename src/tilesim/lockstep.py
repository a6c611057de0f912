"""Checkpoint-cycle protocol pieces that are pure functions of captured
values: sibling comparison (with the unanimous round built directly) and
output voting.

A tile's report of a round is its verdicts, a dict of sibling -> agree,
disagree or deadline-miss, and the time its comparisons completed. A tile
that met a mismatch or a miss stops there, so it detected one exactly when
some verdict is not agree.

The event wiring (when each phase runs) lives in the simulation; everything
here is deterministic arithmetic over validation-memory contents, which is
what makes the protocol unit-testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

AGREE = "agree"
DISAGREE = "disagree"
MISS = "deadline-miss"


def compare_with_siblings(
    me: str,
    members: list[str],
    written_at: int,
    deadline_at: int,
    rows: dict[str, tuple],
    reads_blocked: bool = False,
) -> tuple[dict[str, str], int]:
    """Compare my validation memory against each sibling's: my verdicts
    and the time my comparisons completed.

    `rows` holds each writer's row: a tuple of its checksums of the checked
    threads, in one order, or None where the whole row is missing. Two rows
    agree when they are equal and mine is not missing. The writers, me among
    them, all wrote at `written_at`, no later than `deadline_at`.

    Siblings are walked in rotated member order (each tile starts at the
    slot after its own, so the group does not hammer one segment and the
    supervisor still sees healthy pairs affirm each other when one member
    is bad), and a writer is judged where the walk meets it. A sibling that
    never wrote, or any sibling while reads are blocked, is ready only at
    the deadline and scores a miss: inline where the deadline is the write
    instant, else after every writer, the first such sibling in rotation
    order. On the first mismatch or miss the tile stops comparing and
    reports what it has, so later siblings get no verdict at all.
    """
    my_pos = members.index(me)
    mine = rows[me]
    mine_whole = mine is not None
    verdicts: dict[str, str] = {}
    missed = None
    for sib in members[my_pos + 1:] + members[:my_pos]:
        if reads_blocked or sib not in rows:
            if written_at == deadline_at:
                verdicts[sib] = MISS
                return verdicts, deadline_at
            if missed is None:
                missed = sib
        elif mine_whole and rows[sib] == mine:
            verdicts[sib] = AGREE
        else:
            verdicts[sib] = DISAGREE
            return verdicts, written_at
    if missed is None:
        return verdicts, written_at
    verdicts[missed] = MISS
    return verdicts, deadline_at


def unanimous_reports(
    members: list[str],
    rows: dict[str, tuple],
    reads_blocked: bool = False,
) -> Optional[dict[str, dict[str, str]]]:
    """Every member's verdicts in a unanimous round, or None if it is not one.

    `rows` are whole rows or None, as `compare_with_siblings` takes them,
    but an entry may also be a thread state, which equals another only
    where their checksums are equal too. A round is unanimous when reads
    are not blocked, every member wrote, and every row is there and equal.
    Each member's `compare_with_siblings` then affirms every sibling and
    completes at the write instant: the verdicts are built here directly,
    without walking siblings. `rows` holds members only. Each member gets
    its own verdicts dict.
    """
    if reads_blocked or len(rows) != len(members):
        return None
    first = rows[members[0]]
    if first is None:
        return None
    for m in members:
        if rows[m] != first:
            return None
    agree = dict.fromkeys(members, AGREE)
    reports = {}
    for me in members:
        reports[me] = verdicts = agree.copy()
        del verdicts[me]
    return reports


@dataclass
class VoteResult:
    divergent: list[str] = field(default_factory=list)  # tiles whose output lost
    no_majority: bool = False


def vote_outputs(digests: dict[str, int]) -> VoteResult:
    """Majority-vote one checkpoint window's replica outputs for one thread,
    each given as its tile's checksum of the thread.

    An output wins with >= ceil(n/2) identical copies. Divergent outputs are
    what would have escaped without voting; with voting disabled they do
    escape and are merely counted. Without a majority every output diverges.
    """
    tiles = list(digests)
    buckets: dict[int, list[str]] = {}
    for tile in tiles:
        buckets.setdefault(digests[tile], []).append(tile)
    n = len(tiles)
    max_size = max(len(v) for v in buckets.values())
    winners = [d for d, v in buckets.items() if len(v) == max_size]
    if 2 * max_size >= n and len(winners) == 1:
        best = winners[0]
        return VoteResult(divergent=[t for t in tiles if digests[t] != best])
    return VoteResult(divergent=list(tiles), no_majority=True)
