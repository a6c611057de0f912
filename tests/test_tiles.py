import pytest

from tilesim.tiles import (
    ACTIVE, BOOTING, DEFUNCT, IDLE_SPARE, REBOOTING, SUSPECT, UPDATING,
    InvalidTransition, NotOwner, RunWindow, Tile, TileGroup, ValidationMemory,
)
from tilesim.workload import ThreadSpec, init_thread


def test_single_writer_enforced():
    vmem = ValidationMemory("C0")
    vmem.write_checksum("C0", "Ta", 1, 123)
    with pytest.raises(NotOwner):
        vmem.write_checksum("C1", "Ta", 1, 999)
    snap = init_thread(ThreadSpec("Ta", 1, 1000))
    with pytest.raises(NotOwner):
        vmem.write_snapshot("C1", 1, snap)
    assert vmem.checksum_of("Ta", 1) == 123
    assert vmem.snapshot_of("Ta", 1) is None


def test_checksums_readable_after_entries():
    vmem = ValidationMemory("C0")
    vmem.write_checksum("C0", "Ta", 2, 1)
    vmem.write_checksum("C0", "Tb", 2, 2)
    assert vmem.checksum_of("Ta", 2) == 1
    assert vmem.checksum_of("Tb", 2) == 2


def test_snapshot_storage():
    vmem = ValidationMemory("C0")
    snap = init_thread(ThreadSpec("Ta", 1, 1000))
    vmem.write_snapshot("C0", 3, snap)
    assert vmem.snapshot_of("Ta", 3) is snap
    assert vmem.snapshot_of("Ta", 2) is None


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
        g.bind([])              # no threads, no base period
    g.bind([ThreadSpec("Ta", 1, 1000, update_cost=30)])
    assert (g.comparison_deadline, g.grace_period) == (100, 60)
    assert g.target_size == 3
    assert g.period == 1000
    g.period_factor = 2
    assert g.period == 2000


def test_run_window_split_advance_is_exact():
    # advancing in arbitrary sub-intervals must count the same work cycles
    # as one whole advance, for any work_per_tick
    whole = RunWindow()
    whole.resume(100)
    split = RunWindow()
    split.resume(100)
    total = 0
    for stop in (117, 118, 250, 333, 901):
        total += split.cycles(stop, 25)
        split.advanced_to = stop
    assert total == whole.cycles(901, 25)
