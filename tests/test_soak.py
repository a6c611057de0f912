"""Chaos soak: hostile fault mixes over many seeds with global invariants
checked after every dispatched event."""

import pytest

from tilesim.metrics import compute_metrics
from tilesim.scenario import parse_scenario
from tilesim.simulation import Simulation
from tilesim.tiles import ACTIVE, SUSPECT, UPDATING


def chaos_doc(seed):
    return {
        "name": "chaos", "seed": seed, "horizon": 60000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"}, {"id": "C3"},
                  {"id": "C4"}, {"id": "C5", "spare": True}],
        "threads": [
            {"id": "Ta", "criticality": 8, "checkpoint_period": 1000,
             "state_words": 4, "work_per_tick": 100, "emits_output": True,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
            {"id": "Tb", "criticality": 3, "checkpoint_period": 2000,
             "state_words": 4, "work_per_tick": 100,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
            {"id": "Tc", "criticality": 5, "checkpoint_period": 1500,
             "state_words": 6, "work_per_tick": 120,
             "checksum_cost": 10, "sync_cost": 15, "update_cost": 15},
        ],
        "thread_groups": [{"id": "TG-ab", "threads": ["Ta", "Tb"]},
                          {"id": "TG-c", "threads": ["Tc"]}],
        "tile_groups": [
            {"id": "G1", "members": ["C0", "C1", "C2"], "thread_groups": ["TG-ab"]},
            {"id": "G2", "members": ["C3", "C4"], "thread_groups": ["TG-c"]},
        ],
        "supervisor": {"transient_threshold": 2, "defunct_threshold": 5},
        "features": {"output_voting": True, "ecc": True},
        "faults": {
            "rates": {
                "transient-state": 3e-4,
                "transient-validation-memory": 5e-5,
                "sefi-tile": 2e-5,
                "sefi-shared": 4e-6,
                "permanent-cell": 1e-5,
                "memory-word": 5e-5,
            },
            "windows": [{"start": 20000, "end": 30000, "factor": 4.0}],
            "multi_word_prob": 0.2,
            "sefi_duration": 1200,
        },
    }


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
                tile = self.tiles[m]
                if tile.status in (ACTIVE, SUSPECT, UPDATING):
                    assert gid in tile.groups, f"{m} lost its binding to {gid}"
        for tid, tile in self.tiles.items():
            for gid in tile.groups:
                assert tid in self.groups[gid].members, \
                    f"{tid} bound to {gid} without membership"
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


def shared_tile_doc(seed, transient_threshold):
    doc = chaos_doc(seed)
    doc["tile_groups"] = [
        {"id": "G1", "members": ["C0", "C1", "C2"], "thread_groups": ["TG-ab"]},
        {"id": "G2", "members": ["C2", "C3", "C4"], "thread_groups": ["TG-c"]},
    ]
    doc["supervisor"] = {"transient_threshold": transient_threshold, "defunct_threshold": 5}
    return doc


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
