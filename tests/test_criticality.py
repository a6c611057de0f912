from fractions import Fraction
from itertools import combinations

from tilesim.criticality import (
    DEACTIVATE, FREQUENCY_FACTOR, MAX_PERIOD_FACTOR, MODE_DEACTIVATED, MODE_DETECT_ONLY,
    MODE_FULL, REDUCE_FREQUENCY, REDUCE_REPLICAS, AllocRequest, CriticalityPolicy, PlanEntry,
    group_utilization, reallocate, utilization,
)
from tilesim.engine import RandomStream
from tilesim.workload import ThreadSpec


def thread(tid, crit, period=1000, work=30):
    return ThreadSpec(thread_id=tid, criticality=crit, checkpoint_period=period,
                      work_per_tick=work, checksum_cost=10)


def request(tg_id, crit, tiles, period=1000, work=30, factor=1):
    return AllocRequest(
        tg_id=tg_id, criticality=crit,
        threads=(thread(f"{tg_id}-t", crit, period, work),),
        period=period, current_tiles=tuple(tiles), period_factor=factor,
    )


POLICY = CriticalityPolicy(min_replicas_high=3, min_replicas_low=2, high_threshold=6)


def test_utilization_is_linear_additive():
    spec = thread("t", 5, period=1000, work=30)
    assert utilization(spec, 1000, 2) == Fraction(30) + Fraction(12, 1000)
    # longer period amortizes the checkpoint share
    assert utilization(spec, 2000, 2) < utilization(spec, 1000, 2)


def test_identity_plan_when_everything_healthy():
    tiles = {f"C{i}": Fraction(100) for i in range(4)}
    reqs = [request("TG-a", 8, ("C0", "C1", "C2")),
            request("TG-b", 2, ("C1", "C2", "C3"), work=20)]
    plan = reallocate(tiles, reqs, POLICY)
    assert set(plan["TG-a"].tiles) == {"C0", "C1", "C2"}
    assert set(plan["TG-b"].tiles) == {"C1", "C2", "C3"}
    assert plan["TG-a"].mode == MODE_FULL
    assert not plan["TG-a"].levers


def test_reallocate_is_idempotent():
    tiles = {f"C{i}": Fraction(100) for i in range(4)}
    reqs = [request("TG-a", 8, ("C0", "C1", "C2")),
            request("TG-b", 2, ("C1", "C2", "C3"), work=20)]
    first = reallocate(tiles, reqs, POLICY)
    again = reallocate(tiles, reqs, POLICY)
    assert first == again


def test_thread_migration_example():
    # six tiles, one lost: the short high-criticality group moves onto the
    # neighbour with spare capacity; the expensive low one degrades to a pair
    tiles = {"C0": Fraction(80), "C1": Fraction(80), "C2": Fraction(100),
             "C3": Fraction(100), "C4": Fraction(100)}
    reqs = [
        request("TG-e", 5, ("C0", "C1", "C2"), period=1000, work=60),
        request("TG-c", 9, ("C3", "C4"), period=500, work=30),
        request("TG-d", 1, ("C3", "C4"), period=1000, work=55),
    ]
    plan = reallocate(tiles, reqs, POLICY)
    assert set(plan["TG-c"].tiles) == {"C2", "C3", "C4"}
    assert plan["TG-c"].mode == MODE_FULL
    assert set(plan["TG-e"].tiles) == {"C0", "C1", "C2"}
    d = plan["TG-d"]
    assert set(d.tiles) == {"C3", "C4"}
    assert d.mode == MODE_DETECT_ONLY


def assert_degradation_ladder(plan, reqs, policy):
    """Each entry's levers read as replica steps, then frequency steps, then
    at most one deactivation, and each step is taken only once the one
    before it is at its floor: the low class minimum, then
    MAX_PERIOD_FACTOR."""
    by_id = {r.tg_id: r for r in reqs}
    rank = {REDUCE_REPLICAS: 0, REDUCE_FREQUENCY: 1, DEACTIVATE: 2}
    for e in plan.values():
        req, levers = by_id[e.tg_id], list(e.levers)
        assert [rank[lv] for lv in levers] == sorted(rank[lv] for lv in levers)
        assert levers.count(DEACTIVATE) <= 1
        replicas = (max(policy.class_min(req.criticality), len(req.current_tiles))
                    - levers.count(REDUCE_REPLICAS))
        assert replicas >= policy.min_replicas_low
        steps = levers.count(REDUCE_FREQUENCY)
        assert e.period_factor == req.period_factor * FREQUENCY_FACTOR ** steps
        assert e.period_factor <= MAX_PERIOD_FACTOR
        if steps or DEACTIVATE in levers:
            assert replicas == policy.min_replicas_low
        if DEACTIVATE in levers:
            assert e.period_factor * FREQUENCY_FACTOR > MAX_PERIOD_FACTOR
            assert e.mode == MODE_DEACTIVATED
        else:
            assert len(e.tiles) == replicas


def test_lever_floors_and_order():
    rr, rf, off = REDUCE_REPLICAS, REDUCE_FREQUENCY, DEACTIVATE
    # a replica fewer is enough: the frequency lever stays unused
    tiles = {"C0": Fraction(100), "C1": Fraction(100), "C2": Fraction(10)}
    reqs = [request("TG-a", 2, ("C0", "C1", "C2"))]
    entry = reallocate(tiles, reqs, POLICY)["TG-a"]
    assert (entry.levers, entry.tiles, entry.period_factor) == ((rr,), ("C0", "C1"), 1)
    # at the replica floor the period doubles up to its cap, then the group goes
    tiles = {"C0": Fraction(100), "C1": Fraction(10)}
    reqs = [request("TG-a", 2, ("C0", "C1"))]
    entry = reallocate(tiles, reqs, POLICY)["TG-a"]
    assert entry.levers == (rf, rf, rf, off)
    assert (entry.period_factor, entry.mode) == (MAX_PERIOD_FACTOR, MODE_DEACTIVATED)
    # already at the period cap: deactivation is the only step left
    reqs = [request("TG-a", 2, ("C0", "C1"), factor=MAX_PERIOD_FACTOR)]
    entry = reallocate(tiles, reqs, POLICY)["TG-a"]
    assert (entry.levers, entry.period_factor) == ((off,), MAX_PERIOD_FACTOR)
    # the whole ladder, in order, for a high group that fits nowhere
    tiles = {f"C{i}": Fraction(10) for i in range(3)}
    reqs = [request("TG-hi", 9, ("C0", "C1", "C2"))]
    plan = reallocate(tiles, reqs, POLICY)
    assert plan["TG-hi"].levers == (rr, rf, rf, rf, off)
    assert plan["TG-hi"].loss_of_capability
    assert_degradation_ladder(plan, reqs, POLICY)


def test_frequency_lever_fires_before_deactivation():
    # one tile short on capacity: halving the frequency shrinks the
    # checkpoint share enough to fit
    tiles = {"C0": Fraction(20) + Fraction(7, 1000), "C1": Fraction(20) + Fraction(7, 1000)}
    reqs = [request("TG-a", 2, ("C0", "C1"), period=1000, work=20)]
    plan = reallocate(tiles, reqs, POLICY)
    entry = plan["TG-a"]
    assert entry.active
    assert entry.period_factor == 2
    assert REDUCE_FREQUENCY in entry.levers
    assert_degradation_ladder(plan, reqs, POLICY)


def test_saturation_deactivates_lowest_first():
    tiles = {"C0": Fraction(50), "C1": Fraction(50)}
    reqs = [request("TG-hi", 9, ("C0", "C1"), work=45),
            request("TG-lo", 1, ("C0", "C1"), work=45)]
    plan = reallocate(tiles, reqs, POLICY)
    assert plan["TG-hi"].active
    assert plan["TG-lo"].mode == MODE_DEACTIVATED
    assert not plan["TG-lo"].loss_of_capability
    # the high group was not disturbed by the low one's removal
    assert set(plan["TG-hi"].tiles) == {"C0", "C1"}


def test_high_group_loss_of_capability():
    tiles = {"C0": Fraction(10)}
    reqs = [request("TG-hi", 9, ("C0",), work=45)]
    plan = reallocate(tiles, reqs, POLICY)
    entry = plan["TG-hi"]
    assert entry.mode == MODE_DEACTIVATED
    assert entry.loss_of_capability


def priority_dominance_violations(
    tiles: dict[str, Fraction],
    requests: list[AllocRequest],
    plan: dict[str, PlanEntry],
    policy: CriticalityPolicy,
    context_switch: int = 2,
) -> list[str]:
    """Exchange-argument check: no group may sit below its class minimum
    while strictly less critical groups hold capacity that could fill the
    gap. Returns the ids of groups whose minimum is violated that way.
    """
    by_id = {r.tg_id: r for r in requests}
    load: dict[str, Fraction] = {t: Fraction(0) for t in tiles}
    lower_load: dict[str, dict[str, Fraction]] = {t: {} for t in tiles}
    for entry in plan.values():
        if not entry.active:
            continue
        req = by_id[entry.tg_id]
        util = group_utilization(req, entry.period_factor, context_switch)
        for t in entry.tiles:
            load[t] += util
            lower_load[t][entry.tg_id] = util

    violations = []
    for entry in plan.values():
        req = by_id[entry.tg_id]
        class_min = policy.class_min(req.criticality)
        have = len(entry.tiles) if entry.active else 0
        if have >= class_min:
            continue
        util = group_utilization(req, entry.period_factor or 1, context_switch)
        usable = 0
        for t in tiles:
            if t in entry.tiles:
                continue
            freed = sum(
                (u for other, u in lower_load[t].items()
                 if by_id[other].criticality < req.criticality),
                start=Fraction(0),
            )
            if load[t] - freed + util <= tiles[t]:
                usable += 1
        if have + usable >= class_min:
            violations.append(entry.tg_id)
    return violations


def test_priority_dominance_checker_flags_bad_plan():
    tiles = {"C0": Fraction(100), "C1": Fraction(100), "C2": Fraction(100)}
    reqs = [request("TG-hi", 9, ("C0", "C1")), request("TG-lo", 1, ("C2",))]
    # hand-built bad plan: the high group sits at 2 < 3 replicas while the
    # low group occupies C2, which could host it
    bad = {
        "TG-hi": PlanEntry("TG-hi", ("C0", "C1"), 1, MODE_DETECT_ONLY),
        "TG-lo": PlanEntry("TG-lo", ("C2",), 1, MODE_DETECT_ONLY),
    }
    # the checker also flags TG-lo: it sits below minimum with free capacity
    assert "TG-hi" in priority_dominance_violations(tiles, reqs, bad, POLICY)
    good = reallocate(tiles, reqs, POLICY)
    assert priority_dominance_violations(tiles, reqs, good, POLICY) == []


# -- greedy versus brute force ------------------------------------------------

def brute_force_high_count(tiles, reqs, policy, context_switch=2):
    """Exhaustive oracle: the most high-criticality groups that can be
    placed at full strength simultaneously."""
    high = [r for r in reqs if r.criticality >= policy.high_threshold]
    tile_ids = list(tiles)
    best = 0
    for k in range(len(high), -1, -1):
        for chosen in combinations(high, k):
            for assignment in _assignments(chosen, tile_ids, policy):
                load = {t: Fraction(0) for t in tile_ids}
                ok = True
                for req, tset in zip(chosen, assignment):
                    util = group_utilization(req, req.period_factor, context_switch)
                    for t in tset:
                        load[t] += util
                        if load[t] > tiles[t]:
                            ok = False
                if ok:
                    best = k
                    break
            if best == k:
                break
        if best:
            break
    return best


def _assignments(reqs, tile_ids, policy):
    if not reqs:
        yield []
        return
    head, rest = reqs[0], reqs[1:]
    for tset in combinations(tile_ids, policy.min_replicas_high):
        for tail in _assignments(rest, tile_ids, policy):
            yield [tset] + tail


def plan_high_count(plan, reqs, policy):
    by_id = {r.tg_id: r for r in reqs}
    return sum(
        1 for e in plan.values()
        if by_id[e.tg_id].criticality >= policy.high_threshold
        and e.active and len(e.tiles) >= policy.min_replicas_high
    )


def degraded_instance(rng, policy):
    """A Stage 3 situation as it actually arises: a feasible deployed
    configuration loses tiles. Groups start fully replicated on the initial
    fabric; the instance is the surviving subset."""
    n_tiles = 4
    tile_ids = [f"C{i}" for i in range(n_tiles)]
    capacities = {t: Fraction(rng.uniform_range(80, 120)) for t in tile_ids}
    n_groups = rng.uniform_range(1, 4)
    load = {t: Fraction(0) for t in tile_ids}
    reqs = []
    for g in range(n_groups):
        crit = rng.uniform_range(1, 9)
        work = rng.uniform_range(10, 40)
        spec_ = thread(f"TG-{g}-t", crit, 1000, work)
        util = utilization(spec_, 1000, 2)
        n = policy.class_min(crit)
        hosts = [t for t in tile_ids if load[t] + util <= capacities[t]]
        if len(hosts) < n:
            continue  # deployment would not have shipped this group
        chosen = hosts[:n]
        for t in chosen:
            load[t] += util
        reqs.append(AllocRequest(
            tg_id=f"TG-{g}", criticality=crit, threads=(spec_,),
            period=1000, current_tiles=tuple(chosen)))
    lost = rng.uniform_range(0, 2)
    dead = set(tile_ids[:lost])
    survivors = {t: c for t, c in capacities.items() if t not in dead}
    reqs = [
        AllocRequest(tg_id=r.tg_id, criticality=r.criticality, threads=r.threads,
                     period=r.period,
                     current_tiles=tuple(t for t in r.current_tiles if t not in dead))
        for r in reqs
    ]
    return survivors, reqs


def test_greedy_matches_brute_force_on_degraded_instances():
    rng = RandomStream(1234, "alloc-oracle")
    policy = CriticalityPolicy(min_replicas_high=3, min_replicas_low=2, high_threshold=6)
    checked = 0
    for trial in range(300):
        tiles, reqs = degraded_instance(rng, policy)
        if not reqs:
            continue
        plan = reallocate(tiles, reqs, policy)
        assert_degradation_ladder(plan, reqs, policy)
        greedy = plan_high_count(plan, reqs, policy)
        optimal = brute_force_high_count(tiles, reqs, policy)
        assert greedy == optimal, f"trial {trial}: greedy {greedy} != optimal {optimal}"
        checked += 1
    assert checked > 200


def test_greedy_never_beats_brute_force():
    # sanity bound on fully random (not deployment-shaped) instances
    rng = RandomStream(99, "alloc-bound")
    policy = CriticalityPolicy(min_replicas_high=3, min_replicas_low=2, high_threshold=6)
    levers = set()
    for _ in range(200):
        n_tiles = rng.uniform_range(3, 4)
        tile_ids = [f"C{i}" for i in range(n_tiles)]
        tiles = {t: Fraction(rng.uniform_range(60, 120)) for t in tile_ids}
        reqs = []
        for g in range(rng.uniform_range(1, 4)):
            current = tuple(t for t in tile_ids if rng.uniform_range(0, 1))
            reqs.append(request(f"TG-{g}", rng.uniform_range(1, 9), current,
                                work=rng.uniform_range(10, 50)))
        plan = reallocate(tiles, reqs, policy)
        assert plan_high_count(plan, reqs, policy) <= brute_force_high_count(tiles, reqs, policy)
        assert_degradation_ladder(plan, reqs, policy)
        levers.update(lv for e in plan.values() for lv in e.levers)
    assert levers == {REDUCE_REPLICAS, REDUCE_FREQUENCY, DEACTIVATE}
