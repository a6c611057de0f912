from tilesim.fabric import CELLS, CONFIG, DD, SHARED, VARIANTS, Fabric, Partition


def make_fabric(n=3):
    return Fabric([Partition(f"p{i}", hosted_tile=f"C{i}") for i in range(n)])


def test_default_variant_geometry():
    assert len(VARIANTS) == 3
    for v in VARIANTS:
        assert 0 in v
        assert max(v) < CELLS
    # thirds are disjoint apart from the anchor
    a, b, c = (v - {0} for v in VARIANTS)
    assert not (a & b) and not (b & c) and not (a & c)


def test_reconfigure_undamaged_succeeds():
    f = make_fabric()
    assert f.partial_reconfigure("p0", 1)
    assert f.partitions["p0"].active_variant == 1


def test_variant_overlap_decides_repair():
    # damage at a cell used by variant 2 alone
    f = make_fabric(1)
    cell = max(VARIANTS[2])
    f.add_damage("p0", cell)
    assert not f.partial_reconfigure("p0", 2)
    assert f.partial_reconfigure("p0", 1)
    assert f.partitions["p0"].active_variant == 1
    assert f.viable_variants("p0") == [0, 1]


def test_validation_returns_evidence():
    f = make_fabric()
    f.add_damage("p0", 1)  # inside variant 0's footprint
    ok, evidence = f.validate_partition("p0")
    assert not ok and evidence == {1}
    ok, evidence = f.validate_partition("p1")
    assert ok and evidence == set()


def test_damage_after_reconfigure_fails_validation():
    f = make_fabric()
    assert f.partial_reconfigure("p0", 2)
    cell = next(iter(VARIANTS[2] - {0}))
    f.add_damage("p0", cell)
    ok, evidence = f.validate_partition("p0")
    assert not ok and cell in evidence


def test_config_damage_cleared_by_rewrite_dd_is_not():
    f = make_fabric()
    f.add_damage("p0", 3, flavor=CONFIG)
    f.add_damage("p0", 4, flavor=DD)
    assert f.damaged_cells("p0") == {3, 4}
    f.partial_reconfigure("p0", 2)   # any rewrite clears config corruption
    assert f.damaged_cells("p0") == {4}
    assert f.dd_cells("p0") == {4}


def test_dd_dominates_config_flavor():
    f = make_fabric()
    f.add_damage("p0", 3, flavor=DD)
    f.add_damage("p0", 3, flavor=CONFIG)
    f.partial_reconfigure("p0", 2)
    assert 3 in f.dd_cells("p0")


def test_anchor_damage_fails_validation_under_every_variant():
    f = make_fabric()
    assert f.validate_partition("p0") == (True, set())
    f.add_damage("p0", 0)  # anchor cell: every variant uses it
    assert f.validate_partition("p0") == (False, {0})
    assert f.viable_variants("p0") == []


def test_free_partitions_and_rebind():
    parts = [Partition("p0", hosted_tile="C0"), Partition("p1"), Partition("p2")]
    f = Fabric(parts)
    assert f.free_partitions() == ["p1", "p2"]
    f.rebind("C0", "p1")
    assert f.partitions["p1"].hosted_tile == "C0"
    assert f.partitions["p0"].hosted_tile is None
    assert f.free_partitions() == ["p0", "p2"]


def test_shared_region_same_rules():
    f = make_fabric()
    f.add_damage(SHARED, 0)
    assert f.viable_variants(SHARED) == []
    ok, evidence = f.validate_partition(SHARED)
    assert not ok and evidence == {0}
