"""Run orchestrator: binds the event kernel, tiles, lockstep protocol,
supervisor, fabric, criticality manager, and fault injector into one
deterministic simulation instance.

One Simulation owns all mutable state for a run and is never shared across
threads; independent instances with different seeds can run in parallel,
which is the contract Monte Carlo sweeps rely on.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import criticality as crit
from . import fabric as fab
from . import faults as flt
from . import lockstep
from . import supervisor as sup
from . import workload
from .engine import EventQueue, RandomStream, mix64
from .scenario import Scenario
from .tiles import (
    ACTIVE, BOOTING, DEFUNCT, IDLE_SPARE, REBOOTING, SUSPECT, UPDATING,
    RunWindow, Tile, TileGroup,
)
from .trace import Trace

# microseconds that Stage 2's full reconfiguration of the shared region halts
# the system
FULL_RECONFIG_DURATION = 5000


class GroupCheckpoint:
    """One checkpoint round of a tile group, from its start to its end."""

    __slots__ = ("group", "index", "t0", "participants", "members", "checked", "written_at",
                 "deadline_at", "rows", "snapshots", "resolved", "reports",
                 "clique", "outputs", "boundary", "split", "advanced", "last_advance")

    def __init__(self, group: TileGroup, index: int, t0: int, participants: list[str],
                 members: list[str], checked: list[str], written_at: int, deadline_at: int):
        self.group = group
        self.index = index
        self.t0 = t0
        self.participants = participants
        self.members = members               # roster as of checkpoint start
        self.checked = checked               # thread ids validated this index
        self.written_at = written_at         # every participant writes then
        self.deadline_at = deadline_at
        # Validation memory of this round, keyed by the tiles that wrote. A
        # tile writes its row, a tuple of its states of `checked` in order,
        # and a writer asked to propagate adds its thread states; siblings
        # only read them. A reboot wipes both, and a wiped row reads None. A
        # row entry stands for the state's checksum, read only when the rows
        # are not all equal; a validation-memory fault leaves that checksum,
        # flipped, in the entry it hits, so an entry is a state or an int.
        self.rows: dict[str, Optional[tuple]] = {}
        self.snapshots: dict[str, dict[str, workload.ThreadState]] = {}
        self.resolved = False
        self.reports: dict[str, dict[str, str]] = {}   # tile -> its verdicts
        self.clique: list[str] = []
        # Thread states at the pause, held as they are: a ThreadState never
        # changes. Participants whose checked states are the same objects
        # share one boundary dict, and `split` tells that they hold more
        # than one.
        self.outputs: dict[str, dict[str, workload.ThreadState]] = {}
        self.boundary: dict[str, dict[str, workload.ThreadState]] = {}
        self.split = False
        # Replicas stay bit-identical until a fault hits one, so the tiles of
        # a checkpoint mostly repeat each other's work. This memo is keyed by
        # the advanced state's own thread id, anchor, lag and cycle counter,
        # never by tile, so a lookup makes no jump, and it dies with the
        # checkpoint. Equal replicas get one advanced state object, also
        # when a fault split one's window, and with it one cached checksum;
        # that is safe because a ThreadState never changes.
        # (thread id, anchor, lag, cycle_counter) -> the advanced state
        self.advanced: dict[tuple, workload.ThreadState] = {}
        # The last advance through the memo: (thread-group id, ticks run,
        # ticks done, ((thread id, state before, state after), ...)).
        self.last_advance: Optional[tuple] = None


@dataclass
class RepairJob:
    variants: list[int]
    tried_relocation: bool = False


class Simulation:
    def __init__(self, scenario: Scenario, until: Optional[int] = None):
        if until is not None and until < 0:
            raise ValueError(f"until must be >= 0, not {until}")
        self.scenario = scenario
        self.horizon = scenario.horizon if until is None else min(until, scenario.horizon)
        self.queue = EventQueue(self.horizon)
        self.trace = Trace()
        # report losses draw from a stream of their own, only where there are any
        self.signal_loss = (RandomStream(scenario.seed, "signal-loss")
                            if scenario.features.signal_loss_prob > 0 else None)

        partitions = [fab.Partition(t.partition, hosted_tile=t.tile_id)
                      for t in scenario.tiles]
        partitions += [fab.Partition(pid)
                       for pid in fab.free_partition_ids(scenario.fabric.extra_partitions)]
        self.fabric = fab.Fabric(partitions)

        self.tiles: dict[str, Tile] = {
            t.tile_id: Tile(t.tile_id, t.partition) for t in scenario.tiles
        }

        # Every replica of a thread starts bit-identical, and a ThreadState
        # never changes, so each boot, join and restart of this run hands
        # out the same initial state.
        self.initial_states = {tid: workload.init_thread(spec)
                               for tid, spec in scenario.threads.items()}
        # thread-group id -> its threads, in the order the scenario lists them
        self.thread_groups: dict[str, list[workload.ThreadSpec]] = {}
        self.thread_group_of: dict[str, str] = {}   # thread id -> the thread group listing it
        for tgc in scenario.thread_groups:
            self.thread_groups[tgc.tg_id] = [scenario.threads[tid] for tid in tgc.threads]
            self.thread_group_of.update(dict.fromkeys(tgc.threads, tgc.tg_id))

        self.groups: dict[str, TileGroup] = {}   # in creation order
        # thread-group id -> the tile group running it. Every thread group
        # has one host until Stage 3 deactivates it, which removes its entry.
        self.host_of: dict[str, TileGroup] = {}
        for gc in scenario.tile_groups:
            self._make_group(gc.group_id, gc.members, gc.thread_groups)

        self.supervisor = sup.Supervisor(
            transient_threshold=scenario.supervisor.transient_threshold,
            defunct_threshold=scenario.supervisor.defunct_threshold,
            spare_pool=[t.tile_id for t in scenario.tiles if t.spare],
        )
        # the system resets when no verdict arrives for this long
        self.watchdog_period = 4 * max(g.base_period for g in self.groups.values())

        self.timers: dict[str, list] = {}   # group id -> its one pending queue entry
        self.ctxs: dict[str, GroupCheckpoint] = {}   # group id -> its round, until it ends
        self.pending_updates: dict[str, str] = {}   # tile -> the group that will update it
        self.repair_jobs: dict[str, RepairJob] = {}
        self.shared_sefi: Optional[int] = None   # id of the SEFI fault blocking the shared region
        self.full_reconfig = False
        self.watchdog_entry = None
        self.loss_of_mission = False
        self.tg_active: dict[str, bool] = {}
        self.ledger = flt.FaultLedger(self.trace, self.queue)
        self.oracle_divergences = 0
        self._stage3_seq = 0

    # ------------------------------------------------------------------
    # construction helpers

    def _make_group(self, group_id: str, members: list, thread_groups: list, **options):
        """Build and bind a tile group, and make it its thread groups' host."""
        group = TileGroup(group_id, list(members), list(thread_groups), **options)
        group.bind([spec for tg_id in thread_groups for spec in self.thread_groups[tg_id]],
                   self.scenario.costs.context_switch)
        self.groups[group_id] = group
        self.host_of.update(dict.fromkeys(thread_groups, group))
        return group

    def _join(self, tile: Tile, group: TileGroup, now: Optional[int]):
        """Open a run window on `tile` for each of `group`'s thread groups,
        running from `now`, or stopped until an update lands if None, and
        give the tile an initial state for each thread it does not hold."""
        for tg_id in group.thread_groups:
            win = tile.windows[tg_id] = RunWindow()
            if now is not None:
                win.resume(now)
            for spec in self.thread_groups[tg_id]:
                if spec.thread_id not in tile.threads:
                    tile.threads[spec.thread_id] = self.initial_states[spec.thread_id]

    # ------------------------------------------------------------------
    # run loop

    def run(self) -> Trace:
        self.trace.emit(0, "sim", "run-start",
                        {"scenario": self.scenario.name, "seed": self.scenario.seed,
                         "horizon": self.horizon,
                         "tg_map": {tgc.tg_id: list(tgc.threads)
                                    for tgc in self.scenario.thread_groups},
                         "config": hashlib.blake2b(
                             self.scenario.canonical_json().encode(), digest_size=8
                         ).hexdigest()})
        # a finished run frees itself without the cyclic collector, whose
        # passes over the growing trace would find nothing: it is paused
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._initial_boot()
            self._schedule_faults()
            self._arm_watchdog(0)
            # the queue returns None at the first event after the horizon
            advance, dispatch = self.queue.advance, self.dispatch
            while not self.loss_of_mission and (ev := advance()) is not None:
                dispatch(ev)
        finally:
            if collecting:
                gc.enable()

        end = self.queue.now if self.loss_of_mission else self.horizon
        reason = "loss-of-mission" if self.loss_of_mission else "horizon"
        self.trace.emit(end, "sim", "run-end", {"reason": reason})
        return self.trace

    def dispatch(self, ev: list):
        """Run one popped queue entry ``[fire_at, seq, handler, args]``.

        Handlers are plain functions of the class, never bound methods: a
        queue entry that held ``self`` would put every run in a reference
        cycle that only the cyclic collector frees."""
        ev[2](self, *ev[3])

    def _initial_boot(self):
        for tile in self.tiles.values():
            self._boot_tile(tile, initial=True)
        for group in self.groups.values():
            self._set_tg_active(group, True, 0)
            self._arm_timer(group, 0)

    def _schedule_faults(self):
        profile = self.scenario.profile
        space = None   # only generated faults pick a target
        if any(rate > 0 for rate in profile.rates.values()):
            space = flt.TargetSpace(
                tiles=[t.tile_id for t in self.scenario.tiles],
                # a tile's threads in scenario order, which decides the thread
                # a generated fault hits
                threads_on={
                    t.tile_id: [
                        tid for g in self.scenario.tile_groups if t.tile_id in g.members
                        for tgc in self.scenario.thread_groups if tgc.tg_id in g.thread_groups
                        for tid in tgc.threads
                    ]
                    for t in self.scenario.tiles
                },
                state_words={tid: spec.state_words
                             for tid, spec in self.scenario.threads.items()},
                partitions=[t.partition for t in self.scenario.tiles] + [fab.SHARED],
            )
        # drawn over the whole horizon, so a run to `until` is a prefix of the run
        events = flt.generate(profile, self.scenario.horizon,
                              RandomStream(self.scenario.seed, "faults"), space)
        for ev in events:
            self.ledger.events[ev.fault_id] = ev
            self.queue.schedule(ev.at, Simulation.apply_fault, ev)

    # ------------------------------------------------------------------
    # boot and reboot

    def _boot_tile(self, tile: Tile, initial: bool = False):
        now = self.queue.now
        passed, evidence = self.fabric.validate_partition(tile.partition)
        if not passed:
            self.trace.emit(now, tile.tile_id, "boot-failed",
                            {"tile": tile.tile_id, "evidence": sorted(evidence)})
            tile.set_status(DEFUNCT)
            self.ledger.move((flt.TILE, tile.tile_id), (flt.PARTITION, tile.partition))
            self._start_repair(tile.tile_id)
            return
        tile.persist_corrupt = False

        member_of = [g for g in self.groups.values() if tile.tile_id in g.members]
        if member_of:
            tile.set_status(ACTIVE)
            for group in member_of:
                self._join(tile, group, now)
            self.trace.emit(now, tile.tile_id, "boot",
                            {"assigned": [g.group_id for g in member_of]})
            if not initial:
                # after a reboot a group checkpoints at once, when every
                # member is back up
                for group in member_of:
                    if all(self.tiles[m].status == ACTIVE for m in group.members):
                        self._set_tg_active(group, True, now)
                        self.start_checkpoint(group, trigger="boot")
        else:
            self.trace.emit(now, tile.tile_id, "boot", {"assigned": []})
            self.trace.emit(now, tile.tile_id, "tile-boot-checkpoint", {"tile": tile.tile_id})
            tile.set_status(IDLE_SPARE)
            self.supervisor.return_spare(tile.tile_id)
            self.trace.emit(now, tile.tile_id, "spare-pool-enter", {"tile": tile.tile_id})
            if not initial:
                self.ledger.settle((flt.TILE, tile.tile_id), "corrected")
                self._restore_groups()

    def _reboot_tile(self, tile: Tile, schedule: bool = True):
        now = self.queue.now
        tile.set_status(REBOOTING)
        for ctx in self.ctxs.values():
            if tile.tile_id in ctx.rows:
                ctx.rows[tile.tile_id] = None
            ctx.snapshots.pop(tile.tile_id, None)
        tile.threads.clear()
        if tile.tile_id in self.supervisor.spare_pool:
            self.supervisor.spare_pool.remove(tile.tile_id)
        if tile.sefi is not None:
            self._lift_sefi(tile.tile_id, tile.tile_id)
        # the reboot resets the state a pending update was going to repair
        self.pending_updates.pop(tile.tile_id, None)
        self.ledger.settle((flt.PENDING, tile.tile_id), "corrected")
        if schedule:
            self.queue.schedule(now + self.scenario.costs.boot_time,
                                Simulation._on_tile_reboot_done, tile.tile_id)

    def _on_tile_reboot_done(self, tile_id: str):
        tile = self.tiles[tile_id]
        if tile.status != REBOOTING:
            return
        tile.set_status(BOOTING)
        self._boot_tile(tile)

    # ------------------------------------------------------------------
    # checkpoint cycle

    def start_checkpoint(self, group: TileGroup, trigger: str):
        now = self.queue.now
        tiles = self.tiles
        self.queue.cancel(self.timers.pop(group.group_id, None))
        group.checkpoint_index += 1
        index = group.checkpoint_index
        participants = [m for m in group.members if tiles[m].status in (ACTIVE, SUSPECT)]
        checked, ready = group.plan(index)
        ctx = GroupCheckpoint(group, index, now, participants, list(group.members), checked,
                              now + ready, now + group.comparison_deadline)
        self.ctxs[group.group_id] = ctx
        # a copy: the record must not change with the round's roster
        self.trace.emit(now, group.group_id, "checkpoint-start",
                        {"group": group.group_id, "index": index, "trigger": trigger,
                         "participants": list(participants)})
        if not participants:   # the round ends as it starts
            del self.ctxs[group.group_id]
            self._arm_timer(group, now + group.period)
            return

        boundary = None   # the last active participant's boundary states
        for m in participants:
            tile = tiles[m]
            threads, windows = tile.threads, tile.windows
            blocked = tile.sefi is not None
            for tg_id in group.thread_groups:
                win = windows.get(tg_id)
                if win and win.running:
                    self._advance_window(tile, tg_id, now, ctx)
                    win.running = False
            if tile.status == ACTIVE:
                if boundary is not None:
                    for tid in checked:
                        if threads[tid] is not boundary[tid]:
                            boundary = None
                            ctx.split = True
                            break
                if boundary is None:
                    boundary = {tid: threads[tid] for tid in checked}
                ctx.boundary[m] = boundary
                if not blocked:
                    for tid in group.output_threads:
                        ctx.outputs.setdefault(tid, {})[m] = threads[tid]
            if blocked:
                self.trace.emit(now, m, "checkpoint-blocked",
                                {"tile": m, "group": group.group_id, "index": index})
                continue
            self.queue.schedule(ctx.written_at, Simulation._on_checksums_ready, ctx, m)
        self.timers[group.group_id] = self.queue.schedule(
            ctx.deadline_at, Simulation._resolve_checkpoint, ctx)

    def _advance_window(self, tile: Tile, tg_id: str, now: int,
                        ctx: Optional[GroupCheckpoint] = None):
        """Run the window's threads up to `now`, through `ctx`'s memo, or
        through a memo of this call's own outside a round.

        A thread runs one work cycle each time another `work_per_tick` ticks
        have passed since the window's epoch, so an advance split at any
        instants runs the same cycles as one whole advance, and reaches the
        memo entry of the whole advance: the key is the state it makes.

        In a round, a tile whose window ran the same ticks from the very
        state objects that the round's last advance started from takes that
        advance's states as they are, the ones its memo lookups would give
        back. A state that is equal but another object takes the memo."""
        win = tile.windows.get(tg_id)
        if win is None or not win.running or now <= win.advanced_to:
            return
        threads = tile.threads
        ran, done = now - win.epoch, win.advanced_to - win.epoch
        if ctx is None:
            memo = {}
        else:
            memo, last = ctx.advanced, ctx.last_advance
            if (last is not None and last[0] == tg_id and last[1] == ran and last[2] == done
                    and not tile.persist_corrupt):
                for tid, before, _ in last[3]:
                    if threads[tid] is not before:
                        break
                else:
                    for tid, _, after in last[3]:
                        threads[tid] = after
                    win.advanced_to = now
                    return
        steps = []
        slipped = False
        for spec in self.thread_groups[tg_id]:
            work_per_tick = spec.work_per_tick
            cycles = ran // work_per_tick - done // work_per_tick
            if cycles:
                tid = spec.thread_id
                ts = threads[tid]
                key = (tid, ts.anchor, ts.lag + cycles, ts.cycle_counter + cycles)
                ahead = memo.get(key)
                if ahead is None:
                    ahead = memo[key] = workload.execute_slice(ts, cycles * work_per_tick)
                steps.append((tid, ts, ahead))
                if tile.persist_corrupt:
                    ahead = workload.flip_bits(
                        ahead, 0, [mix64(tile.noise_seed ^ ahead.cycle_counter) | 1])
                    slipped = True
                threads[tid] = ahead
        win.advanced_to = now
        if ctx is not None:
            ctx.last_advance = (tg_id, ran, done, steps)
        if slipped:
            self.trace.emit(now, tile.tile_id, "persistent-corruption", {"tile": tile.tile_id})

    def _on_checksums_ready(self, ctx: GroupCheckpoint, tile_id: str):
        """Store this tile's row: a tuple of its states of the checked
        threads, each standing for its checksum, which a resolve reads only
        when the rows differ. Losing the write silently is exactly how an
        interface SEFI manifests."""
        group_id, index = ctx.group.group_id, ctx.index
        if self.ctxs.get(group_id) is not ctx:
            return
        tile = self.tiles[tile_id]
        if not tile.is_member:
            return
        now = self.queue.now
        if tile.sefi is not None:
            self.trace.emit(now, tile_id, "validation-write-lost",
                            {"tile": tile_id, "group": group_id, "index": index})
            return
        threads = tile.threads
        ctx.rows[tile_id] = tuple([threads[tid] for tid in ctx.checked])
        self.trace.emit(now, tile_id, "validation-write",
                        {"tile": tile_id, "group": group_id, "index": index,
                         "threads": len(ctx.checked)})
        # only participants write, each once, so this holds at one write;
        # the resolve takes the place of a deadline still to come
        if len(ctx.rows) == len(ctx.participants) and now < ctx.deadline_at:
            self.queue.cancel(self.timers[group_id])
            self.timers[group_id] = self.queue.schedule(now, Simulation._resolve_checkpoint, ctx)

    def _resolve_checkpoint(self, ctx: GroupCheckpoint):
        # whatever ends a round early cancels this entry, the group's timer
        group = ctx.group
        group_id, index = group.group_id, ctx.index
        del self.timers[group_id]
        ctx.resolved = True
        now = self.queue.now

        # read at resolve time: a transient vmem fault or a reboot since the
        # write shows up here
        rows = ctx.rows
        reads_blocked = self.shared_sefi is not None
        # Equal states have equal checksums, so rows of equal states settle a
        # unanimous round. Other rows are compared by their checksums, where
        # a collision still counts as agreement: `compare_with_siblings`
        # reports such rows as it would a unanimous round.
        agreed = lockstep.unanimous_reports(ctx.members, rows, reads_blocked)
        if agreed is None:
            rows = {w: None if row is None else tuple(
                        [e.checksum if e.__class__ is workload.ThreadState else e for e in row])
                    for w, row in rows.items()}
        else:
            completed_at = ctx.written_at   # a unanimous round completes at its write
        loss = self.scenario.features.signal_loss_prob
        for m in ctx.participants:
            if m not in rows or self.tiles[m].sefi is not None:
                continue  # never wrote, or its interface is down: stays silent
            if agreed is None:
                verdicts, completed_at = lockstep.compare_with_siblings(
                    m, ctx.members, ctx.written_at, ctx.deadline_at, rows, reads_blocked)
            else:
                verdicts = agreed[m]
            if loss > 0:
                roll = (self.signal_loss.uniform64() >> 11) * 2.0**-53
                if roll < loss:
                    self.trace.emit(now, m, "signal-lost",
                                    {"tile": m, "group": group_id, "index": index})
                    continue
            ctx.reports[m] = verdicts
            # the verdicts are built for this tile and never changed, so the
            # record can hold them as they are
            self.trace.emit(now, m, "checkpoint-report",
                            {"tile": m, "group": group_id, "index": index,
                             "verdicts": verdicts, "completed_at": completed_at})

        if ctx.outputs:
            self._vote_outputs(group, ctx)
        if ctx.split:   # the same state objects cannot diverge
            self._oracle_check(group, ctx)

        if not ctx.reports:
            # total silence: the supervisor cannot even tell a checkpoint
            # happened, so it stays passive; the group stalls until the
            # watchdog resets the system
            self.trace.emit(now, "supervisor", "verdict",
                            {"group": group_id, "index": index, "result": "silent",
                             "faulty": [], "clique": [],
                             "participants": len(ctx.participants),
                             "target_size": group.target_size})
            del self.ctxs[group_id]
            self._set_tg_active(group, False, now)
            return

        if agreed is not None and len(ctx.reports) == len(ctx.participants):
            result, faulty, clique = "all-agree", [], list(ctx.participants)
        else:  # a lost or blocked report can leave a tie: only arbitration tells
            verdict = sup.arbitrate(ctx.participants, ctx.reports)
            result = ("all-agree" if verdict.all_agree
                      else "unresolvable" if verdict.unresolvable else "faulty")
            faulty, clique = verdict.faulty, verdict.clique
        # nothing changes a verdict's lists, so the round and its record share one
        ctx.clique = clique
        self._arm_watchdog(now)
        self.trace.emit(now, "supervisor", "verdict",
                        {"group": group_id, "index": index, "result": result,
                         "faulty": faulty, "clique": clique,
                         "participants": len(ctx.participants), "target_size": group.target_size})

        if result == "all-agree":
            self._finish_agreeing_checkpoint(group, ctx)
        elif not group.correction_enabled:
            self._detect_only(group, ctx, verdict)
        elif verdict.unresolvable:
            self._handle_unresolvable(group, ctx, verdict)
        else:
            self._handle_faulty(group, ctx, verdict)

    def _vote_outputs(self, group: TileGroup, ctx: GroupCheckpoint):
        now = self.queue.now
        voting = self.scenario.features.output_voting
        for tid in sorted(ctx.outputs):
            states = ctx.outputs[tid]
            first, *others = states.values()
            if all(ts is first or ts == first for ts in others):
                continue  # equal outputs cannot diverge
            result = lockstep.vote_outputs({m: ts.checksum for m, ts in states.items()})
            if result.divergent or result.no_majority:
                self.trace.emit(now, group.group_id, "output-vote",
                                {"group": group.group_id, "index": ctx.index, "thread": tid,
                                 "cycle": first.cycle_counter,
                                 "divergent": result.divergent,
                                 "suppressed": bool(voting),
                                 "no_majority": result.no_majority,
                                 "escaped": 0 if voting else len(result.divergent)})

    def _oracle_check(self, group: TileGroup, ctx: GroupCheckpoint):
        """Compare full boundary states behind the protocol's back: a pair
        that diverged yet mutually agreed is an undetected divergence.

        Only a `split` round comes here: one whose participants hold more
        than one boundary dict. The walk goes over the reporting
        participants' pairs in participant order. Replicas that no fault hit
        share one boundary dict, and such a pair cannot diverge."""
        boundary, reports = ctx.boundary, ctx.reports
        walked = [m for m in ctx.participants if m in reports and m in boundary]
        now = self.queue.now
        for i, a in enumerate(walked):
            verdicts_a, sa = reports[a], boundary[a]
            for b in walked[i + 1:]:
                sb = boundary[b]
                if (sb is sa or verdicts_a.get(b) != lockstep.AGREE
                        or reports[b].get(a) != lockstep.AGREE):
                    continue
                for tid in ctx.checked:
                    if sa.get(tid) != sb.get(tid):
                        self.oracle_divergences += 1
                        self.trace.emit(now, "oracle", "oracle-divergence",
                                        {"group": group.group_id, "index": ctx.index,
                                         "thread": tid, "tiles": [a, b]})

    # -- checkpoint outcomes ------------------------------------------------

    def _donor(self, group: TileGroup, ctx: GroupCheckpoint) -> Optional[str]:
        """The round's donor: the first tile on the group's roster that is in
        the round's clique, or None."""
        for m in group.members:
            if m in ctx.clique:
                return m
        return None

    def _finish_agreeing_checkpoint(self, group: TileGroup, ctx: GroupCheckpoint):
        pending, gid = self.pending_updates, group.group_id
        # a spare joining the group waits for the grace expiry
        if pending and [m for m in group.members
                        if pending.get(m) == gid and self.tiles[m].status == UPDATING]:
            donor = self._donor(group, ctx)
            if donor is not None:
                self.propagate_state(group, ctx, [donor])
            self._enter_grace(group, ctx)
        else:
            self._finish_checkpoint(group, ctx, "all-agree")

    def _finish_checkpoint(self, group: TileGroup, ctx: GroupCheckpoint, result: str):
        now = self.queue.now
        del self.ctxs[group.group_id]
        # list the members and resume the running ones' windows in one pass
        members = []
        for m in group.members:
            tile = self.tiles[m]
            if tile.is_member:
                members.append(m)
                if tile.status == ACTIVE:
                    windows = tile.windows
                    for tg_id in group.thread_groups:
                        win = windows.get(tg_id)
                        if win:
                            win.resume(now)
        self.trace.emit(now, group.group_id, "checkpoint-end",
                        {"group": group.group_id, "index": ctx.index,
                         "duration": now - ctx.t0, "result": result, "tiles": members})
        self._arm_timer(group, now + group.period)

    def _enter_grace(self, group: TileGroup, ctx: GroupCheckpoint):
        self.timers[group.group_id] = self.queue.schedule(
            self.queue.now + group.grace_period, Simulation._on_grace_expiry, ctx)

    def propagate_state(self, group: TileGroup, ctx: GroupCheckpoint, writers: list[str]):
        """Schedule the synchronization callback of each of `writers`: the
        round's donor and, after a faulty verdict, every member that reported
        a mismatch or a miss, the blamed tiles among them."""
        for w in writers:
            self.queue.schedule(self.queue.now + group.sync_time, Simulation._on_sync_written,
                                ctx, w)

    def _on_sync_written(self, ctx: GroupCheckpoint, tile_id: str):
        group = ctx.group
        group_id, index = group.group_id, ctx.index
        if self.groups.get(group_id) is not group:   # dissolved
            return
        tile = self.tiles[tile_id]
        now = self.queue.now
        # a tile that rebooted since may have joined only another group
        if not tile.is_member or tile_id not in group.members:
            return
        if tile.sefi is not None:
            self.trace.emit(now, tile_id, "state-propagation-lost",
                            {"tile": tile_id, "group": group_id, "index": index})
            return
        # only the round's own grace expiry reads them
        ctx.snapshots[tile_id] = {spec.thread_id: tile.threads[spec.thread_id]
                                  for spec in group.threads}
        self.trace.emit(now, tile_id, "state-propagation",
                        {"tile": tile_id, "group": group_id, "index": index,
                         "threads": len(group.threads)})

    def _detect_only(self, group: TileGroup, ctx: GroupCheckpoint, verdict: sup.Verdict):
        """A group with correction off records what it detected and carries
        on. An unresolvable verdict blames every participant."""
        blamed = ctx.participants if verdict.unresolvable else verdict.faulty
        payload = {"group": group.group_id, "index": ctx.index, "faulty": verdict.faulty}
        if verdict.unresolvable:
            payload["unresolvable"] = True
        self.trace.emit(self.queue.now, "supervisor", "detection-only", payload)
        for m in blamed:
            self.ledger.settle((flt.TILE, m), "degraded",
                               detected_by=(m, group.group_id, ctx.index))
        self._finish_checkpoint(group, ctx, "detect-only")

    def _handle_faulty(self, group: TileGroup, ctx: GroupCheckpoint, verdict: sup.Verdict):
        donor = self._donor(group, ctx)
        reports = ctx.reports
        # a tile stops comparing at its first mismatch or miss, so it saw one
        # exactly when some verdict is not an agreement
        agree = {lockstep.AGREE}
        self.propagate_state(group, ctx, [
            m for m in ctx.members
            if m == donor or m in reports and not agree.issuperset(reports[m].values())])
        for f in verdict.faulty:
            self._apply_fault_action(group, ctx, f, donor)
        self._enter_grace(group, ctx)

    def _apply_fault_action(self, group: TileGroup, ctx: GroupCheckpoint,
                            faulty_id: str, donor: str):
        now = self.queue.now
        tile = self.tiles[faulty_id]
        if tile.status == REBOOTING:
            # a reboot in the same instant wiped its checksums; that reboot
            # already resets the tile and settles its faults
            return
        action = self.supervisor.handle_fault(faulty_id, now, group.period)
        here = (flt.TILE, faulty_id)
        self.ledger.detect(here, faulty_id, group.group_id, ctx.index)

        if action.kind == sup.STATE_UPDATE:
            self.command_tile(faulty_id, "state-update", donor=donor, group=group)
            if faulty_id in self.pending_updates:
                # outcome settles when the update actually lands; a command
                # lost on a blocked interface leaves the faults open here
                self.ledger.move(here, (flt.PENDING, faulty_id))
            return
        # a spare, if there is one, takes the tile's slot; then the tile leaves every roster
        if action.spare:
            group.members[group.members.index(faulty_id)] = action.spare
            self._activate_spare(action.spare, group)
        # a rebooted or halted tile takes all of its replicas with it: it
        # leaves every group roster (replacement fills only one slot)
        for other in self.groups.values():
            if faulty_id in other.members:
                other.members.remove(faulty_id)
        if action.kind == sup.REPLACE:
            self.command_tile(faulty_id, "reboot")
            self.ledger.settle(here, "replaced")
        elif action.kind == sup.DEFUNCT_STAGE2:
            self.trace.emit(now, "supervisor", "command", {"tile": faulty_id, "command": "halt"})
            tile.set_status(DEFUNCT)
            self.ledger.move(here, (flt.PARTITION, tile.partition))
            self._start_repair(faulty_id)
        else:  # STAGE2_NO_SPARE
            self.trace.emit(now, "supervisor", "stage2-escalation",
                            {"tile": faulty_id, "reason": "no-spare"})
            self.command_tile(faulty_id, "reboot")

    def command_tile(self, tile_id: str, command: str, donor: Optional[str] = None,
                     group: Optional[TileGroup] = None):
        """Supervisor-to-tile command over the low-level debug interface."""
        now = self.queue.now
        tile = self.tiles[tile_id]
        if tile.status == DEFUNCT and command != "repair-reboot":
            self.trace.emit(now, "supervisor", "command-rejected",
                            {"tile": tile_id, "command": command, "reason": "defunct"})
            return
        if command == "state-update":
            tile.set_status(SUSPECT)
            if tile.sefi is not None:
                self.trace.emit(now, "supervisor", "command-lost",
                                {"tile": tile_id, "command": command})
                return
            self.trace.emit(now, "supervisor", "command",
                            {"tile": tile_id, "command": command, "donor": donor})
            self.pending_updates[tile_id] = group.group_id
        else:  # "reboot" or "repair-reboot"
            self.trace.emit(now, "supervisor", "command", {"tile": tile_id, "command": "reboot"})
            self._reboot_tile(tile)

    def _activate_spare(self, spare_id: str, group: TileGroup):
        now = self.queue.now
        spare = self.tiles[spare_id]
        self.trace.emit(now, "supervisor", "command",
                        {"tile": spare_id, "command": "activate-with-mapping",
                         "group": group.group_id, "thread_groups": list(group.thread_groups)})
        spare.set_status(UPDATING)
        self._join(spare, group, None)
        self.pending_updates[spare_id] = group.group_id

    def _handle_unresolvable(self, group: TileGroup, ctx: GroupCheckpoint,
                             verdict: sup.Verdict):
        now = self.queue.now
        if verdict.all_miss and ctx.reports and len(ctx.reports) == len(ctx.participants):
            # every member is alive yet nobody could read a sibling: the
            # shared interconnect itself is suspect
            self.trace.emit(now, "supervisor", "shared-fault-suspected",
                            {"group": group.group_id, "index": ctx.index})
            self.ledger.detect((flt.PARTITION, fab.SHARED), "shared",
                               group.group_id, ctx.index)
            self.full_reconfigure()
            return
        self.trace.emit(now, "supervisor", "group-reboot",
                        {"group": group.group_id, "index": ctx.index})
        self.trace.emit(now, group.group_id, "checkpoint-end",
                        {"group": group.group_id, "index": ctx.index,
                         "duration": now - ctx.t0, "result": "unresolvable",
                         "tiles": list(ctx.participants)})
        del self.ctxs[group.group_id]
        self._set_tg_active(group, False, now)
        for m in list(group.members):
            tile = self.tiles[m]
            self.ledger.settle((flt.TILE, m), "corrected",
                               detected_by=(m, group.group_id, ctx.index))
            if tile.is_member:
                self.command_tile(m, "reboot")

    # -- grace period and updates --------------------------------------------

    def _on_grace_expiry(self, ctx: GroupCheckpoint):
        """Close the recovery window: every update the group awaits copies
        the round's one donor, then the whole group resumes together."""
        group = ctx.group
        group_id = group.group_id
        # whatever ends the round early cancels this entry, the group's timer
        del self.timers[group_id]
        now = self.queue.now
        donor_id = self._donor(group, ctx)
        # the donor's states of every thread the group still runs: a rebase
        # may have dropped some since the donor propagated
        held = ctx.snapshots.get(donor_id)
        ready = (held is not None and self.tiles[donor_id].is_member
                 and self.shared_sefi is None)
        for m in list(group.members):
            if self.pending_updates.get(m) != group_id:
                continue
            tile = self.tiles[m]
            del self.pending_updates[m]
            if ready and tile.sefi is None:
                for spec in group.threads:
                    tid = spec.thread_id
                    tile.threads[tid] = workload.update_callback(tile.threads[tid], held[tid])
                tile.set_status(ACTIVE)
                self.trace.emit(now, m, "update-success",
                                {"tile": m, "group": group_id, "donor": donor_id,
                                 "threads": len(group.threads)})
                self.ledger.settle((flt.PENDING, m), "corrected")
            else:
                reason = "no-donor" if donor_id is None else "donor-snapshots-missing"
                self.trace.emit(now, m, "update-failed",
                                {"tile": m, "group": group_id, "reason": reason})
                self.ledger.move((flt.PENDING, m), (flt.TILE, m))
                if tile.status == UPDATING:
                    # a joining spare that cannot sync goes back through reboot
                    group.members.remove(m)
                    self.command_tile(m, "reboot")
                # a suspect member just stays suspect and will miss again
        self._finish_checkpoint(group, ctx, "recovered")

    # ------------------------------------------------------------------
    # faults

    def apply_fault(self, ev: flt.FaultEvent):
        now = self.queue.now
        kind = ev.kind
        arrive = self.ledger.arrive

        if kind == flt.MEMORY_WORD and self.scenario.features.ecc:
            arrive(ev, reason="ecc")
            return

        if kind in (flt.TRANSIENT_STATE, flt.MEMORY_WORD):
            tile = self.tiles.get(ev.tile or "")
            if tile is None or not tile.is_member or ev.thread not in tile.threads:
                arrive(ev, reason="no-target")
                return
            tg_id = self.thread_group_of[ev.thread]
            if tg_id not in tile.windows:
                arrive(ev, reason="no-target")
                return
            self._advance_window(tile, tg_id, now)
            tile.threads[ev.thread] = workload.flip_bits(tile.threads[ev.thread],
                                                         ev.word, ev.masks)
            arrive(ev, (flt.TILE, ev.tile), words=len(ev.masks))
        elif kind == flt.TRANSIENT_VMEM:
            tile = self.tiles.get(ev.tile or "")
            if tile is None or not tile.is_member:
                arrive(ev, reason="no-target")
                return
            # only an open round that validates the thread and holds the tile's row
            # reads the checksum again, a former host's too: Stage 3 leaves it open
            for gid, group in self.groups.items():
                ctx = self.ctxs.get(gid)
                if (ev.tile in group.members and ctx and not ctx.resolved
                        and ev.thread in ctx.checked and ctx.rows.get(ev.tile) is not None):
                    break
            else:
                arrive(ev, reason="stale-entry")
                return
            row = list(ctx.rows[ev.tile])
            k = ctx.checked.index(ev.thread)
            if row[k].__class__ is workload.ThreadState:
                row[k] = row[k].checksum
            row[k] ^= ev.masks[0] or 1
            ctx.rows[ev.tile] = tuple(row)
            arrive(ev, (flt.TILE, ev.tile), index=ctx.index)
        elif kind == flt.PERMANENT_CELL:
            self.fabric.add_damage(ev.partition, ev.cell, ev.flavor)
            if ev.partition == fab.SHARED:
                arrive(ev, (flt.PARTITION, fab.SHARED), flavor=ev.flavor)
                return
            part = self.fabric.partitions[ev.partition]
            tile = self.tiles.get(part.hosted_tile or "")
            footprint = fab.VARIANTS[part.active_variant]
            if tile is not None and tile.is_member and ev.cell in footprint:
                tile.persist_corrupt = True
                arrive(ev, (flt.TILE, tile.tile_id), (flt.PARTITION, ev.partition),
                       flavor=ev.flavor, corrupting=True)
            else:
                arrive(ev, reason="latent-cell")
        elif kind == flt.SEFI_TILE:
            tile = self.tiles.get(ev.tile or "")
            if tile is None or tile.status in (DEFUNCT, REBOOTING, BOOTING):
                arrive(ev, reason="no-target")
                return
            tile.sefi = ev.fault_id
            arrive(ev, (flt.TILE, ev.tile), duration=ev.duration)
            self.queue.schedule(now + ev.duration, Simulation._on_sefi_expiry,
                                ev.tile, ev.fault_id)
        elif kind == flt.SEFI_SHARED:
            self.shared_sefi = ev.fault_id
            arrive(ev, (flt.PARTITION, fab.SHARED), duration=ev.duration)
            self.queue.schedule(now + ev.duration, Simulation._on_sefi_expiry,
                                fab.SHARED, ev.fault_id)
        else:
            raise ValueError(f"unhandled fault kind {kind!r}")

    def _on_sefi_expiry(self, target: str, fault_id: int):
        """A SEFI ends on its own only while its fault still holds the block.
        A later SEFI on the same target takes the block over, and a reboot
        or a full reconfiguration lifts it."""
        holder = self.shared_sefi if target == fab.SHARED else self.tiles[target].sefi
        if holder == fault_id:
            self._lift_sefi(target, "injector")
            self.ledger.absorb(fault_id)

    def _lift_sefi(self, target: str, actor: str):
        """Clear the SEFI block on a tile or on the shared region."""
        if target == fab.SHARED:
            self.shared_sefi = None
        else:
            self.tiles[target].sefi = None
        self.trace.emit(self.queue.now, actor, "sefi-cleared", {"target": target})

    # ------------------------------------------------------------------
    # Stage 2: repair

    def _start_repair(self, tile_id: str):
        """Stage 2 entry point: iterate configuration variants over the
        tile's partition, then try relocating, then escalate."""
        now = self.queue.now
        if tile_id in self.repair_jobs:
            return
        self.repair_jobs[tile_id] = RepairJob(list(range(len(fab.VARIANTS))))
        self.trace.emit(now, "supervisor", "repair-start",
                        {"tile": tile_id, "partition": self.tiles[tile_id].partition})
        self._repair_step(tile_id)

    def _repair_step(self, tile_id: str):
        now = self.queue.now
        job, tile = self.repair_jobs[tile_id], self.tiles[tile_id]
        if job.variants:
            variant = job.variants.pop(0)
            self.queue.schedule(now + self.scenario.costs.reconfig_duration,
                                Simulation._on_reconfiguration_done, tile_id, variant)
            return
        if not job.tried_relocation:
            job.tried_relocation = True
            for free in self.fabric.free_partitions():
                viable = self.fabric.viable_variants(free)
                if viable:
                    self.trace.emit(now, "supervisor", "repair-relocate",
                                    {"tile": tile_id, "source": tile.partition, "target": free})
                    self.fabric.rebind(tile_id, free)
                    self.ledger.move((flt.PARTITION, tile.partition), (flt.PARTITION, free))
                    tile.partition = free
                    job.variants = viable
                    self._repair_step(tile_id)
                    return
        evidence = sorted(self.fabric.damaged_cells(tile.partition))
        self.trace.emit(now, "supervisor", "repair-exhausted",
                        {"tile": tile_id, "partition": tile.partition, "evidence": evidence})
        del self.repair_jobs[tile_id]
        self.ledger.settle((flt.PARTITION, tile.partition), "degraded")
        self.stage3_reallocate(reason=f"repair-exhausted:{tile_id}")

    def _on_reconfiguration_done(self, tile_id: str, variant: int):
        # a repair job has one reconfiguration in flight, and only this
        # handler ends or relocates the job, so the tile is still on the
        # partition that the rewrite was scheduled for
        tile = self.tiles[tile_id]
        partition = tile.partition
        now = self.queue.now
        # a rewrite that succeeds leaves no damage under the variant
        ok = self.fabric.partial_reconfigure(partition, variant)
        self.trace.emit(now, "fabric", "reconfiguration",
                        {"partition": partition, "variant": variant, "ok": ok,
                         "evidence": sorted(self.fabric.footprint_overlap(partition, variant))})
        if not ok:
            self._repair_step(tile_id)
            return
        self.trace.emit(now, "supervisor", "repair-success",
                        {"tile": tile_id, "partition": partition, "variant": variant})
        del self.repair_jobs[tile_id]
        tile.persist_corrupt = False
        self.ledger.settle((flt.PARTITION, partition), "repaired")
        self.supervisor.reset_counter(tile_id)
        self.command_tile(tile_id, "repair-reboot")

    def full_reconfigure(self):
        """Stage 2's last resort: rewrite the shared region, briefly halting
        and then rebooting the whole system."""
        if self.full_reconfig:
            return
        now = self.queue.now
        self.full_reconfig = True
        self.trace.emit(now, "supervisor", "full-reconfig-start", {})
        self._halt_all_tiles(now)
        self.queue.schedule(now + FULL_RECONFIG_DURATION,
                            Simulation._on_full_reconfig_done)

    def _halt_all_tiles(self, now: int):
        for gid, group in self.groups.items():
            self.queue.cancel(self.timers.pop(gid, None))
            # a resolved round outlasts the halt, which cancelled its grace expiry
            ctx = self.ctxs.get(gid)
            if ctx and not ctx.resolved:
                del self.ctxs[gid]
                self.trace.emit(now, gid, "checkpoint-aborted", {"group": gid, "index": ctx.index})
            self._set_tg_active(group, False, now)
        for tile in self.tiles.values():
            if tile.status in (DEFUNCT, REBOOTING):
                continue
            self.ledger.settle((flt.TILE, tile.tile_id), "corrected")
            self._reboot_tile(tile, schedule=False)

    def _on_full_reconfig_done(self):
        now = self.queue.now
        self.full_reconfig = False
        viable = self.fabric.viable_variants(fab.SHARED)
        if not viable:
            self.trace.emit(now, "supervisor", "unrecoverable-system",
                            {"evidence": sorted(self.fabric.damaged_cells(fab.SHARED))})
            self.ledger.settle((flt.PARTITION, fab.SHARED), "degraded")
            self.loss_of_mission = True
            return
        current = self.fabric.shared.active_variant
        nxt = next((i for i in viable if i > current), viable[0])
        self.fabric.partial_reconfigure(fab.SHARED, nxt)
        self.trace.emit(now, "fabric", "full-reconfig-done", {"variant": nxt})
        if self.shared_sefi is not None:
            self._lift_sefi(fab.SHARED, "injector")
        self.ledger.settle((flt.PARTITION, fab.SHARED), "repaired")
        self._restart_after_halt(now)

    def _restart_after_halt(self, now: int):
        """Boot every tile a system-wide halt left rebooting, and restart
        the watchdog."""
        for tile in self.tiles.values():
            if tile.status == REBOOTING:
                self.queue.schedule(now + self.scenario.costs.boot_time,
                                    Simulation._on_tile_reboot_done, tile.tile_id)
        self._arm_watchdog(now)

    # ------------------------------------------------------------------
    # watchdog

    def _arm_watchdog(self, now: int):
        """(Re)start the watchdog: it fires one period from `now` unless a
        verdict or a restart arms it again first."""
        self.queue.cancel(self.watchdog_entry)
        self.watchdog_entry = self.queue.schedule(
            now + self.watchdog_period, Simulation._on_watchdog_expiry)

    def _on_watchdog_expiry(self):
        """Watchdog fired: full system reset; fault counters are retained."""
        now = self.queue.now
        if self.full_reconfig:
            self.trace.emit(now, "supervisor", "watchdog-suppressed", {})
            self._arm_watchdog(now)
            return
        self.trace.emit(now, "supervisor", "watchdog-reset", {})
        self._halt_all_tiles(now)
        self._restart_after_halt(now)

    # ------------------------------------------------------------------
    # Stage 3: mixed criticality

    def stage3_reallocate(self, reason: str):
        now = self.queue.now
        healthy = {
            t.tile_id: Fraction(t.capacity)
            for t in self.scenario.tiles
            if self.tiles[t.tile_id].status in (ACTIVE, SUSPECT, UPDATING, IDLE_SPARE)
        }
        requests = []
        for tg_id, host in self.host_of.items():
            threads = self.thread_groups[tg_id]
            requests.append(crit.AllocRequest(
                tg_id=tg_id,
                criticality=max(s.criticality for s in threads),
                threads=tuple(threads),
                period=min(s.checkpoint_period for s in threads),
                current_tiles=tuple(m for m in host.members if m in healthy),
                period_factor=host.period_factor,
            ))
        plan = crit.reallocate(healthy, requests, self.scenario.policy,
                               context_switch=self.scenario.costs.context_switch)
        self.trace.emit(now, "supervisor", "stage3-plan",
                        {"reason": reason,
                         "entries": [{
                             "tg": e.tg_id, "tiles": list(e.tiles), "mode": e.mode,
                             "period_factor": e.period_factor, "levers": list(e.levers),
                         } for e in plan.values()]})
        self._apply_plan(plan)

    def _apply_plan(self, plan: dict[str, crit.PlanEntry]):
        now = self.queue.now
        for tg_id, entry in plan.items():
            host = self.host_of[tg_id]
            if not entry.active:
                del self.host_of[tg_id]
                self._detach_tg(host, tg_id, now)
                self._mark_active(tg_id, False, now)
                self.trace.emit(now, "supervisor", "tg-deactivated",
                                {"tg": tg_id, "loss_of_capability": entry.loss_of_capability})
                continue
            # a host keeping its tiles (the plan places only healthy ones)
            # changes in place; a shared host keeps its period
            if (set(host.members) == set(entry.tiles)
                    and (entry.period_factor == host.period_factor
                         or len(host.thread_groups) == 1)):
                slowed = entry.period_factor != host.period_factor
                if slowed:
                    host.period_factor = entry.period_factor
                    for m in host.members:
                        self.trace.emit(now, m, "timer-adjusted",
                                        {"tile": m, "group": host.group_id, "period": host.period})
                degrades = entry.mode == crit.MODE_DETECT_ONLY and host.correction_enabled
                if degrades:
                    host.correction_enabled = False
                if slowed or degrades:
                    self.trace.emit(now, "supervisor", "tg-degraded",
                                    {"tg": tg_id, "mode": entry.mode,
                                     "levers": list(entry.levers)})
                continue
            self.migrate_thread_group(entry, host)

    def _detach_tg(self, host: TileGroup, tg_id: str, now: int):
        """Take a thread group off its host group's tiles. A host left with
        no thread group dissolves; any other binds the threads it still
        runs, which works out its timing again."""
        host.thread_groups.remove(tg_id)
        for m in host.members:
            tile = self.tiles[m]
            self._advance_window(tile, tg_id, now)
            tile.windows.pop(tg_id, None)
        if not host.thread_groups:
            self.queue.cancel(self.timers.pop(host.group_id, None))
            self.ctxs.pop(host.group_id, None)
            del self.groups[host.group_id]
            return
        base = host.base_period
        host.bind([spec for t in host.thread_groups for spec in self.thread_groups[t]],
                  self.scenario.costs.context_switch)
        if host.base_period != base:
            for m in host.members:
                self.trace.emit(now, m, "timer-adjusted",
                                {"tile": m, "group": host.group_id, "period": host.period})

    def migrate_thread_group(self, entry: crit.PlanEntry, host: TileGroup):
        """Move one thread group onto its planned tiles as a fresh tile
        group, seeding state from a healthy donor (or restarting from init)."""
        now = self.queue.now
        threads = self.thread_groups[entry.tg_id]
        donor_id = next((m for m in host.members
                         if self.tiles[m].status in (ACTIVE, SUSPECT)), None)
        self._detach_tg(host, entry.tg_id, now)

        self._stage3_seq += 1
        gid = f"{entry.tg_id}-m{self._stage3_seq}"
        group = self._make_group(gid, entry.tiles, [entry.tg_id],
                                 period_factor=entry.period_factor,
                                 correction_enabled=len(entry.tiles) >= 3)

        if donor_id is None:
            self.trace.emit(now, "supervisor", "tg-restarted",
                            {"tg": entry.tg_id, "reason": "no-donor"})
        donor = self.tiles[donor_id] if donor_id else None
        for m in entry.tiles:
            tile = self.tiles[m]
            if tile.status == IDLE_SPARE:
                self.supervisor.spare_pool.remove(m)
                tile.set_status(UPDATING)
                tile.set_status(ACTIVE)
            elif tile.status in (SUSPECT, UPDATING):
                # the migration cancels a pending update, which never landed:
                # its faults stay open at the tile, as after a failed update
                self.pending_updates.pop(m, None)
                self.ledger.move((flt.PENDING, m), (flt.TILE, m))
                tile.set_status(ACTIVE)
            self._join(tile, group, now)
            for spec in threads:
                if donor is not None and m != donor_id:
                    tile.threads[spec.thread_id] = workload.update_callback(
                        tile.threads[spec.thread_id], donor.threads[spec.thread_id])
                elif donor is None:
                    tile.threads[spec.thread_id] = self.initial_states[spec.thread_id]
            self.trace.emit(now, m, "timer-adjusted",
                            {"tile": m, "group": gid, "period": group.period})
        self.trace.emit(now, "supervisor", "tg-migrated",
                        {"tg": entry.tg_id, "group": gid, "tiles": list(entry.tiles),
                         "mode": entry.mode, "period_factor": entry.period_factor})
        if entry.mode == crit.MODE_DETECT_ONLY:
            self.trace.emit(now, "supervisor", "tg-degraded",
                            {"tg": entry.tg_id, "mode": entry.mode, "levers": list(entry.levers)})
        self._mark_active(entry.tg_id, True, now)
        self._arm_timer(group, now)

    # ------------------------------------------------------------------
    # spare restoration

    def _restore_groups(self):
        """When a spare appears, top up the first group running short. The
        caller has just returned a spare to the pool, so there is one to take."""
        now = self.queue.now
        for gid, group in self.groups.items():
            if not group.correction_enabled or len(group.members) >= group.target_size:
                continue
            spare_id = self.supervisor.take_spare()
            self.trace.emit(now, "supervisor", "group-restored", {"group": gid, "tile": spare_id})
            self._activate_spare(spare_id, group)
            group.members.append(spare_id)
            if gid not in self.ctxs:
                self.start_checkpoint(group, trigger="supervisor")
            return

    # ------------------------------------------------------------------
    # availability + timers

    def _set_tg_active(self, group: TileGroup, active: bool, now: int):
        for tg_id in group.thread_groups:
            self._mark_active(tg_id, active, now)

    def _mark_active(self, tg_id: str, active: bool, now: int):
        if self.tg_active.get(tg_id) != active:
            self.tg_active[tg_id] = active
            self.trace.emit(now, "sim", "tg-active", {"tg": tg_id, "active": active})

    def _arm_timer(self, group: TileGroup, at: int):
        # armed only with no entry pending: at boot, when made, and as a
        # round ends; a dissolved group's is cancelled
        self.timers[group.group_id] = self.queue.schedule(
            at, Simulation.start_checkpoint, group, "timer")
