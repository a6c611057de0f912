"""Chaos soak: hostile fault mixes over many seeds with global invariants
checked after every dispatched event."""

import pytest

from tilesim.metrics import compute_metrics
from tilesim.scenario import parse_scenario
from tilesim.simulation import Simulation
from tilesim.tiles import ACTIVE, DEFUNCT, SUSPECT, UPDATING
from trace_corpus import chaos_doc, shared_tile_doc


class Checked(Simulation):
    def dispatch(self, ev):
        super().dispatch(ev)
        self.check_invariants()

    def check_invariants(self):
        pool = set(self.supervisor.spare_pool)
        members = {m for g in self.groups.values() for m in g.members}
        assert not pool & members, "pooled tile is also a group member"
        for tid in pool:
            assert self.tiles[tid].status == "idle-spare", \
                f"pooled tile {tid} is {self.tiles[tid].status}"
        for gid, group in self.groups.items():
            for m in group.members:
                if self.tiles[m].status in (ACTIVE, SUSPECT, UPDATING):
                    for tg_id in group.thread_groups:
                        assert tg_id in self.tiles[m].windows, \
                            f"{m} runs no window of {tg_id} for {gid}"
        for tid, tile in self.tiles.items():
            for tg_id in tile.windows:
                assert any(tg_id in g.thread_groups and tid in g.members
                           for g in self.groups.values()), \
                    f"{tid} runs {tg_id} for no group that lists it"
        # A group's one pending entry is its open round's resolve, due at the
        # write instant once every participant has written before the
        # deadline and at the deadline until then; with no open round, it is
        # the group's timer. Participants write once each.
        assert set(self.timers) <= set(self.groups), "a dissolved group keeps an entry"
        for gid, group in self.groups.items():
            entry, ctx = self.timers.get(gid), self.ctxs.get(gid)
            if ctx is not None and not ctx.resolved:
                assert set(ctx.rows) <= set(ctx.participants), \
                    f"{gid} holds a row of a tile that is no participant"
                written = (len(ctx.rows) == len(ctx.participants)
                           and ctx.written_at < ctx.deadline_at)
                due = ctx.written_at if written else ctx.deadline_at
                assert entry is not None and entry[0] == due and entry[2:] == [
                    Simulation._resolve_checkpoint, (ctx,)], \
                    f"{gid}'s pending entry is not its open round's resolve at t={due}"
            else:
                assert entry is None or entry[2:] == [Simulation.start_checkpoint,
                                                      (group, "timer")], \
                    f"{gid} has no open round, and its pending entry is not its timer"
        # a repair job's tile stays defunct, so nothing moves it off its partition
        for tid in self.repair_jobs:
            assert self.tiles[tid].status == DEFUNCT, f"{tid} is under repair but not defunct"
        # permanent damage never shrinks
        dd = {k for k, fl in self.fabric.damage.items() if fl == "dd"}
        assert dd >= self._last_dd
        self._last_dd = dd

    _last_dd: set = set()


def lost_faults(sim, trace) -> set:
    """Applied faults with no outcome in the trace that the ledger no longer
    holds open: a detected-but-open fault is legitimate, a dropped one not."""
    applied = {r.payload["id"] for r in trace.records
               if r.kind == "fault" and r.payload["disposition"] == "applied"}
    settled = {r.payload["id"] for r in trace.records if r.kind == "fault-outcome"}
    return applied - settled - sim.ledger.open_ids()


def test_chaos_soak_over_seeds():
    for seed in range(80):
        sim = Checked(parse_scenario(chaos_doc(seed)))
        sim._last_dd = set()
        trace = sim.run()
        summary = compute_metrics(trace.records)
        assert summary.identity_holds(), f"seed {seed}: accounting broken"
        assert sim.oracle_divergences == 0, f"seed {seed}: masked divergence"
        assert not lost_faults(sim, trace), f"seed {seed}: fault left without outcome"
        # trace is replayable: a second run is byte-identical
        again = Simulation(parse_scenario(chaos_doc(seed))).run()
        assert trace.to_jsonl() == again.to_jsonl(), f"seed {seed}: not deterministic"


# C2 serves both groups. At (3, 63) G1's group-reboot reboots C2 while a
# state update that G2 ordered for it still holds a detected fault; in the
# other cases G2 blames C2 in the same instant as G1's reboot wiped its
# checksums, and must not command the rebooting tile.
@pytest.mark.parametrize("threshold,seed",
                         [(3, 63), (3, 22), (3, 107), (3, 152), (2, 221), (2, 322)])
def test_shared_tile_reboot(threshold, seed):
    sim = Checked(parse_scenario(shared_tile_doc(seed, threshold)))
    sim._last_dd = set()
    trace = sim.run()
    end = trace.records[-1]
    assert (end.kind, end.at, end.payload["reason"]) == ("run-end", sim.horizon, "horizon")
    assert compute_metrics(trace.records).identity_holds()
    assert sim.oracle_divergences == 0
    assert not lost_faults(sim, trace)


def test_vmem_fault_skips_another_groups_resolved_entry():
    # At t=1515 G2's round 1 is open on C2, but it validates Tc only. C2's
    # checksum of Ta belongs to G1's round 1, resolved at t=1036, so
    # nothing reads it again.
    doc = shared_tile_doc(0, 3)
    doc["horizon"] = 8000
    doc["faults"] = {"explicit": [{"at": 1515, "kind": "transient-validation-memory",
                                   "tile": "C2", "thread": "Ta", "mask": 1}]}
    trace = Simulation(parse_scenario(doc)).run()
    fault = next(r.payload for r in trace.records if r.kind == "fault")
    assert (fault["disposition"], fault.get("reason")) == ("absorbed", "stale-entry")
    summary = compute_metrics(trace.records)
    assert summary.undetected == 0 and summary.identity_holds()
