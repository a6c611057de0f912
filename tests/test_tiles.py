import pytest

from tilesim import faults as flt
from tilesim.scenario import parse_scenario
from tilesim.simulation import Simulation
from tilesim.tiles import (
    ACTIVE, BOOTING, DEFUNCT, IDLE_SPARE, REBOOTING, SUSPECT, UPDATING,
    TRANSITIONS, InvalidTransition, RunWindow, Tile, TileGroup,
)
from tilesim.workload import ThreadSpec
from trace_corpus import shared_tile_doc


def at_open_rounds(check):
    """Run the shared-tile chaos document without faults to t=1, and there
    call `check(sim, g1, g2)` with round 0 open in G1 (Ta, Tb on C0, C1, C2)
    and in G2 (Tc on C2, C3, C4), once every member has written its row in
    both by hand."""
    doc = shared_tile_doc(0, 3)
    doc["faults"] = {"explicit": []}
    sim = Simulation(parse_scenario(doc), until=1)
    checked = []

    def hook(sim):
        for gid in ("G1", "G2"):
            group, ctx = sim.groups[gid], sim.ctxs[gid]
            assert (ctx.index, ctx.resolved, ctx.rows) == (0, False, {})
            for m in group.members:
                sim._on_checksums_ready(ctx, m)
        check(sim, sim.ctxs["G1"], sim.ctxs["G2"])
        checked.append(True)

    sim.queue.schedule(1, hook)
    sim.run()
    assert checked


def test_vmem_fault_flips_only_its_threads_checksum_in_the_open_round():
    def check(sim, g1, g2):
        assert g1.checked == ["Ta", "Tb"] and g2.checked == ["Tc"]
        before = dict(g1.rows), dict(g2.rows)
        ev = flt.FaultEvent(at=1, kind=flt.TRANSIENT_VMEM, fault_id=7,
                            tile="C2", thread="Tb", masks=(4,))
        sim.ledger.events[ev.fault_id] = ev
        sim.apply_fault(ev)
        # a row holds states until its checksums are needed; the fault
        # leaves the flipped checksum in the one entry it hits
        ta, tb = before[0]["C2"]
        assert g1.rows == {**before[0], "C2": (ta, tb.checksum ^ 4)}
        assert g1.rows["C2"][0] is ta
        assert all(g1.rows[m] is before[0][m] for m in ("C0", "C1"))
        assert g2.rows == before[1]
        assert all(g2.rows[m] is before[1][m] for m in g2.rows)
        assert sim.trace.of_kind("fault")[-1].payload["index"] == 0

    at_open_rounds(check)


def test_reboot_of_a_shared_tile_drops_its_row_from_every_open_round():
    def check(sim, g1, g2):
        for ctx in (g1, g2):
            sim._on_sync_written(ctx, "C2")
        assert "C2" in g1.snapshots and "C2" in g2.snapshots
        sim.command_tile("C2", "reboot")
        # C2 still counts as a writer, whose wiped row reads as missing
        assert sorted(g1.rows) == ["C0", "C1", "C2"] and sorted(g2.rows) == ["C2", "C3", "C4"]
        assert g1.rows["C2"] is None and g2.rows["C2"] is None
        assert not g1.snapshots and not g2.snapshots

    at_open_rounds(check)


def test_status_machine_allows_documented_paths():
    tile = Tile("C0", "p0")
    for path in [
        (ACTIVE, SUSPECT, ACTIVE, REBOOTING, BOOTING, IDLE_SPARE,
         UPDATING, ACTIVE, SUSPECT, REBOOTING, BOOTING, DEFUNCT, REBOOTING,
         BOOTING, IDLE_SPARE),
    ]:
        tile = Tile("C0", "p0")
        for status in path:
            tile.set_status(status)


def test_status_machine_rejects_illegal():
    tile = Tile("C0", "p0")
    tile.set_status(ACTIVE)
    with pytest.raises(InvalidTransition):
        tile.set_status(IDLE_SPARE)   # active tiles must reboot first
    tile.set_status(REBOOTING)
    with pytest.raises(InvalidTransition):
        tile.set_status(ACTIVE)       # must go through booting


def test_spare_and_defunct_host_nothing():
    tile = Tile("C0", "p0")
    tile.set_status(ACTIVE)
    tile.windows["TG1"] = RunWindow()
    tile.set_status(REBOOTING)
    assert not tile.windows
    tile.set_status(BOOTING)
    tile.set_status(DEFUNCT)
    assert not tile.windows


def test_tile_group_invariants():
    g = TileGroup("G1", members=["C0", "C1", "C2"], thread_groups=["TG1"])
    with pytest.raises(ValueError):
        g.bind([], 2)           # no threads, no base period
    g.bind([ThreadSpec("Ta", 1, 1000, update_cost=30)], 2)
    assert (g.comparison_deadline, g.grace_period) == (100, 60)
    assert g.target_size == 3
    assert g.period == 1000
    g.period_factor = 2
    assert g.period == 2000


def test_bind_works_out_the_round_plan_again():
    # the checksum deferral and the output threads follow the bound threads
    g = TileGroup("G1", members=["C0", "C1", "C2"], thread_groups=["TG1"])
    quiet = ThreadSpec("Tb", 1, 1000)
    g.bind([ThreadSpec("Ta", 1, 1000, emits_output=True, viable_delay=30), quiet], 2)
    assert (g.delay, g.output_threads) == (30, ["Ta"])
    g.bind([quiet], 2)
    assert (g.delay, g.output_threads) == (0, [])
    g.bind([ThreadSpec("Tc", 1, 1000, emits_output=True, viable_delay=60), quiet,
            ThreadSpec("Td", 1, 1000, emits_output=True)], 2)
    assert (g.delay, g.output_threads) == (60, ["Tc", "Td"])
    # a first round that cannot finish by the comparison deadline, 100 here,
    # is refused: a deferral of 300 is not capped
    with pytest.raises(ValueError, match="checkpoint cost 312 exceeds comparison deadline 100"):
        g.bind([ThreadSpec("Tc", 1, 1000, viable_delay=300)], 2)


def test_checked_threads_modular_schedule():
    # Tb is checked every 3000 // 1000 rounds, Ta every round, in bind order
    group = TileGroup("G1", ["C0"], ["TG"])
    group.bind([ThreadSpec("Ta", 1, 1000), ThreadSpec("Tb", 1, 3000)], 2)
    checked = [group.plan(i)[0] for i in range(9)]
    assert [i for i in range(9) if "Tb" in checked[i]] == [0, 3, 6]
    assert all(ids[0] == "Ta" for ids in checked)


def test_checkpoint_cost_accounting():
    # a checksum and a state write each cost one context switch on top
    group = TileGroup("G1", ["C0"], ["TG"])
    group.bind([ThreadSpec("Ta", 1, 1000, checksum_cost=10, sync_cost=15, viable_delay=30),
                ThreadSpec("Tb", 1, 2000, checksum_cost=20, sync_cost=15)], 2)
    assert group.plan(0) == (["Ta", "Tb"], 30 + (10 + 2) + (20 + 2))
    assert group.plan(1) == (["Ta"], 30 + (10 + 2))
    assert group.sync_time == 2 * (15 + 2)


def test_run_window_split_advance_is_exact():
    # advancing in arbitrary sub-intervals must run the same work cycles as
    # one whole advance, for any work_per_tick
    doc = shared_tile_doc(0, 3)
    doc["threads"][0]["work_per_tick"] = 25   # Ta; Tb keeps 100
    sim = Simulation(parse_scenario(doc))
    whole, split = sim.tiles["C0"], sim.tiles["C1"]
    for tile in (whole, split):
        sim._join(tile, sim.groups["G1"], 100)
    for stop in (117, 118, 250, 333, 901):
        sim._advance_window(split, "TG-ab", stop)
    sim._advance_window(whole, "TG-ab", 901)
    assert split.threads == whole.threads
    assert [whole.threads[tid].cycle_counter for tid in ("Ta", "Tb")] == [801 // 25, 801 // 100]
    assert split.windows["TG-ab"].advanced_to == 901


MEMBER_STATUSES = {ACTIVE, SUSPECT, UPDATING}

# allowed transitions that take a fresh (booting) tile to each status
PATH_FROM_BOOT = {
    BOOTING: [], ACTIVE: [ACTIVE], IDLE_SPARE: [IDLE_SPARE], DEFUNCT: [DEFUNCT],
    SUSPECT: [ACTIVE, SUSPECT], UPDATING: [ACTIVE, SUSPECT, UPDATING],
    REBOOTING: [ACTIVE, REBOOTING],
}


@pytest.mark.parametrize("source, target", sorted(
    (source, target) for source, targets in TRANSITIONS.items() for target in targets))
def test_is_member_follows_every_transition(source, target):
    tile = Tile("C0", "p0")
    assert tile.status == BOOTING and not tile.is_member
    for step in PATH_FROM_BOOT[source]:
        tile.set_status(step)
        assert tile.is_member == (step in MEMBER_STATUSES)
    tile.set_status(target)
    assert tile.is_member == (target in MEMBER_STATUSES)
    # a refused transition leaves status and membership as they were
    refused = sorted(set(TRANSITIONS) - TRANSITIONS[target] - {target})
    if refused:
        with pytest.raises(InvalidTransition):
            tile.set_status(refused[0])
        assert tile.status == target
        assert tile.is_member == (target in MEMBER_STATUSES)
