"""Shared helpers and program sources for the test suite."""

from __future__ import annotations

import dataclasses
import heapq
import io
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple
from unittest import mock

import repro.tracing.bundle
import repro.tracing.serialize as serialize
from repro.analysis.pipeline import MAX_REGENERATIONS, OfflinePipeline
from repro.clock.faults import _Regressor, plan_core_faults
from repro.clock.model import core_of_map
from repro.clock.repair import repair_monotonic
from repro.detector.base import DetectionFindings, HBDetectorBackend
from repro.detector.events import (
    Access,
    AccessKind,
    EventKey,
    RaceReport,
    SyncOp,
    WitnessSchedule,
    access_sort_key,
)
from repro.detector.fasttrack import _VarState
from repro.detector.registry import create_backend
from repro.detector.sharded import run_sharded_fasttrack
from repro.detector.vectorclock import VectorClock
from repro.detector.witness import WITNESS_TAIL, step_of
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.machine.observers import MachineObserver, MemoryAccessEvent
from repro.pmu.drivers import PRORACE_DRIVER
from repro.pmu.pebs import PEBSEngine
from repro.pmu.pt import (
    MTC_BYTES,
    PSB_BYTES,
    PTConfig,
    PTThreadTrace,
    PacketKind,
    RET_STACK_DEPTH,
    TIP_BYTES,
    TNT_BITS_PER_BYTE,
    kind_of,
)
from repro.replay.engine import ReplayResult

#: A small two-thread program with a lock-protected counter (no races).
CLEAN_COUNTER_ASM = """
.global total 0
.global lockvar 0
main:
    mov $6, %rcx
    spawn worker, %rbx
loop:
    call bump
    dec %rcx
    cmp $0, %rcx
    jne loop
    join %rbx
    halt
bump:
    lock $lockvar
    mov total(%rip), %rax
    add $1, %rax
    mov %rax, total(%rip)
    unlock $lockvar
    ret
worker:
    mov $5, %rcx
wloop:
    call bump
    dec %rcx
    cmp $0, %rcx
    jne wloop
    halt
"""

#: A small two-thread program with an obvious data race on `racy`.
RACY_ASM = """
.global racy 0
.global lockvar 0
.reserve workbuf 16
main:
    spawn worker, %rbx
    mov $8, %rcx
mloop:
    mov racy(%rip), %rax
    add $1, %rax
    mov %rax, racy(%rip)
    mov %rcx, %r10
    and $15, %r10
    mov workbuf(,%r10,8), %r11
    dec %rcx
    cmp $0, %rcx
    jne mloop
    join %rbx
    halt
worker:
    mov $8, %rcx
wloop:
    mov racy(%rip), %rax
    add $2, %rax
    mov %rax, racy(%rip)
    dec %rcx
    cmp $0, %rcx
    jne wloop
    halt
"""


#: The pointer-flipper scenario of §5.1: `cell` holds a pointer that one
#: thread races on, and the main thread's reconstructed accesses go
#: *through* the emulated pointer value — detecting the race on `cell`
#: poisons it and forces a regeneration round.
REGEN_ASM = """
.global cell 0
.array a1 1 1 1 1
.array a2 2 2 2 2
.reserve workbuf 16
main:
    spawn flipper, %rbx
    mov $10, %rcx
mloop:
    mov $a1, %rax
    mov %rax, cell(%rip)
    mov %rcx, %r10
    and $15, %r10
    mov workbuf(,%r10,8), %r11
    mov cell(%rip), %rsi
    mov 8(%rsi), %rdx
    dec %rcx
    cmp $0, %rcx
    jne mloop
    join %rbx
    halt
flipper:
    mov $10, %rcx
floop:
    mov $a2, %rax
    mov %rax, cell(%rip)
    dec %rcx
    cmp $0, %rcx
    jne floop
    halt
"""

#: :data:`REGEN_ASM` plus a bystander thread that stores and loads only
#: its own `ownbuf` and never touches `cell`.  Poisoning `cell` re-replays
#: main and the flipper; the bystander's replay emulated no poisoned
#: address, so the regeneration round reuses it.
REGEN_BYSTANDER_ASM = """
.global cell 0
.array a1 1 1 1 1
.array a2 2 2 2 2
.reserve workbuf 16
.reserve ownbuf 16
main:
    spawn flipper, %rbx
    spawn bystander, %r12
    mov $10, %rcx
mloop:
    mov $a1, %rax
    mov %rax, cell(%rip)
    mov %rcx, %r10
    and $15, %r10
    mov workbuf(,%r10,8), %r11
    mov cell(%rip), %rsi
    mov 8(%rsi), %rdx
    dec %rcx
    cmp $0, %rcx
    jne mloop
    join %rbx
    join %r12
    halt
flipper:
    mov $10, %rcx
floop:
    mov $a2, %rax
    mov %rax, cell(%rip)
    dec %rcx
    cmp $0, %rcx
    jne floop
    halt
bystander:
    mov $10, %rcx
bloop:
    mov %rcx, %r10
    and $15, %r10
    mov %rcx, ownbuf(,%r10,8)
    mov ownbuf(,%r10,8), %r11
    dec %rcx
    cmp $0, %rcx
    jne bloop
    halt
"""

def run_machine(program, seed=0, **kwargs):
    """Convenience: run a program on a fresh machine."""
    machine = Machine(program, seed=seed, **kwargs)
    result = machine.run()
    return machine, result


def record_states(program, seed=0, num_cores=4):
    """Run *program* recording, per thread, the executed instruction
    addresses and the register snapshot *before* each instruction.

    Returns {tid: [(ip, regs_before_dict), ...]} in execution order —
    the oracle several replay tests drive WindowReplayer with.
    """
    machine = Machine(program, seed=seed, num_cores=num_cores)
    states = {}
    original_step = machine._step

    def wrapped(thread):
        snapshot = thread.registers.snapshot()
        states.setdefault(thread.tid, []).append((thread.ip, snapshot))
        original_step(thread)

    machine._step = wrapped
    machine.run()
    return machine, states


class ReferenceWitnessPlanner:
    """The reference for :class:`~repro.detector.witness.WitnessPlanner`'s
    search: the planner as it was before it indexed the stream once.

    Each search rebuilds its horizon by scanning the stream up to the
    pair, lists every move of a state when it enters it, and keys the
    visited set on the pointers, the owners and every count.  The
    differential tests assert that the planner returns the same
    ``steps``, ``total_steps`` and ``nodes_explored``.
    """

    def __init__(self, events, max_nodes: int = 20_000,
                 tail: Optional[int] = WITNESS_TAIL) -> None:
        self.events: List[object] = list(events)
        self.max_nodes = max_nodes
        self.tail = tail
        #: DFS nodes explored across all searches so far.
        self.nodes_total = 0
        # Static per-event metadata the reordering rules need:
        # the mode each rwlock_unlock releases (from its matching
        # acquire in program order) and the arrive quota of each
        # barrier_wait (the arrivals of its generation — everything
        # that preceded it in the original stream).
        self._unlock_mode: Dict[int, str] = {}
        self._required_arrives: Dict[int, int] = {}
        held_mode: Dict[Tuple[int, int], str] = {}
        arrives: Dict[int, int] = {}
        for index, event in enumerate(self.events):
            if not isinstance(event, SyncOp):
                continue
            kind = event.kind
            if kind == "rwlock_rd":
                held_mode[(event.tid, event.target)] = "rd"
            elif kind == "rwlock_wr":
                held_mode[(event.tid, event.target)] = "wr"
            elif kind == "rwlock_unlock":
                self._unlock_mode[index] = held_mode.pop(
                    (event.tid, event.target), "wr"
                )
            elif kind == "barrier_arrive":
                arrives[event.target] = arrives.get(event.target, 0) + 1
            elif kind == "barrier_wait":
                self._required_arrives[index] = arrives.get(event.target, 0)

    def search(self, first_at: int,
               second_at: int) -> Optional[WitnessSchedule]:
        """Goal-directed DFS for a feasible schedule ending
        ``…, events[first_at], events[second_at]``."""
        events = self.events
        first = events[first_at]
        second = events[second_at]
        tid_a, tid_b = first.tid, second.tid

        # Per-thread event sequences over the horizon (arrival ≤ second),
        # with the pair's threads capped *at* their racy access: events a
        # thread would execute after its side of the pair can never be
        # needed, and must never be scheduled before it.
        sequences: Dict[int, List[int]] = {}
        for index in range(second_at + 1):
            event = events[index]
            tid = event.tid
            if tid == tid_a and index > first_at:
                continue
            sequences.setdefault(tid, []).append(index)
        #: tid → index of the fork that starts it (threads with no
        #: schedulable fork are runnable from the start — or, if their
        #: fork fell outside the horizon, never runnable, which is the
        #: conservative choice).
        fork_of: Dict[int, int] = {}
        for sequence in sequences.values():
            for index in sequence:
                event = events[index]
                if (isinstance(event, SyncOp) and event.kind == "fork"
                        and event.target in sequences):
                    fork_of.setdefault(event.target, index)

        tids = sorted(sequences)
        ptr = {tid: 0 for tid in tids}
        lock_owner: Dict[int, int] = {}
        sem_count: Dict[int, int] = {}
        rw_writer: Dict[int, int] = {}
        rw_readers: Dict[int, int] = {}
        arrive_count: Dict[int, int] = {}
        forked: set = set()
        schedule: List[int] = []
        visited: set = set()
        unlock_mode = self._unlock_mode
        required_arrives = self._required_arrives

        def state_key():
            return (
                tuple(ptr[tid] for tid in tids),
                tuple(sorted(lock_owner.items())),
                tuple(sorted(
                    (t, c) for t, c in sem_count.items() if c
                )),
                tuple(sorted(rw_writer.items())),
                tuple(sorted(
                    (t, c) for t, c in rw_readers.items() if c
                )),
                tuple(sorted(
                    (t, c) for t, c in arrive_count.items() if c
                )),
            )

        def enabled(tid: int) -> Optional[int]:
            """The thread's next schedulable event index, or None."""
            at = ptr[tid]
            if at >= len(sequences[tid]):
                return None
            if tid in fork_of and fork_of[tid] not in forked:
                return None
            index = sequences[tid][at]
            event = events[index]
            if isinstance(event, Access):
                return index
            kind = event.kind
            if kind == "lock":
                owner = lock_owner.get(event.target)
                return index if owner is None or owner == tid else None
            if kind in ("sem_wait", "cond_wake"):
                return index if sem_count.get(event.target, 0) > 0 \
                    else None
            if kind == "join":
                child = event.target
                done = (child not in sequences
                        or ptr[child] >= len(sequences[child]))
                return index if done else None
            if kind == "rwlock_rd":
                return index if rw_writer.get(event.target) is None \
                    else None
            if kind == "rwlock_wr":
                free = (rw_writer.get(event.target) is None
                        and rw_readers.get(event.target, 0) == 0)
                return index if free else None
            if kind == "barrier_wait":
                quota = required_arrives.get(index, 0)
                return index if arrive_count.get(event.target, 0) >= quota \
                    else None
            # unlock / sem_post / cond_signal / fork / rwlock_unlock /
            # barrier_arrive: always schedulable once reached.
            return index

        def apply(index: int) -> None:
            event = events[index]
            ptr[event.tid] += 1
            schedule.append(index)
            if isinstance(event, SyncOp):
                kind = event.kind
                target = event.target
                if kind == "lock":
                    lock_owner[target] = event.tid
                elif kind == "unlock":
                    lock_owner.pop(target, None)
                elif kind in ("sem_post", "cond_signal"):
                    sem_count[target] = sem_count.get(target, 0) + 1
                elif kind in ("sem_wait", "cond_wake"):
                    sem_count[target] -= 1
                elif kind == "fork":
                    forked.add(index)
                elif kind == "rwlock_rd":
                    rw_readers[target] = rw_readers.get(target, 0) + 1
                elif kind == "rwlock_wr":
                    rw_writer[target] = event.tid
                elif kind == "rwlock_unlock":
                    if unlock_mode.get(index, "wr") == "wr":
                        rw_writer.pop(target, None)
                    else:
                        rw_readers[target] -= 1
                elif kind == "barrier_arrive":
                    arrive_count[target] = arrive_count.get(target, 0) + 1

        def undo(index: int) -> None:
            event = events[index]
            ptr[event.tid] -= 1
            schedule.pop()
            if isinstance(event, SyncOp):
                kind = event.kind
                target = event.target
                if kind == "lock":
                    lock_owner.pop(target, None)
                elif kind == "unlock":
                    lock_owner[target] = event.tid
                elif kind in ("sem_post", "cond_signal"):
                    sem_count[target] -= 1
                elif kind in ("sem_wait", "cond_wake"):
                    sem_count[target] = sem_count.get(target, 0) + 1
                elif kind == "fork":
                    forked.discard(index)
                elif kind == "rwlock_rd":
                    rw_readers[target] -= 1
                elif kind == "rwlock_wr":
                    rw_writer.pop(target, None)
                elif kind == "rwlock_unlock":
                    if unlock_mode.get(index, "wr") == "wr":
                        rw_writer[target] = event.tid
                    else:
                        rw_readers[target] = rw_readers.get(target, 0) + 1
                elif kind == "barrier_arrive":
                    arrive_count[target] -= 1

        def at_goal() -> bool:
            # Both threads parked right before their racy access (and
            # actually runnable: their forks, if any, are scheduled).
            return (
                ptr[tid_a] == len(sequences[tid_a]) - 1
                and ptr[tid_b] == len(sequences[tid_b]) - 1
                and all(
                    tid not in fork_of or fork_of[tid] in forked
                    for tid in (tid_a, tid_b)
                )
            )

        move_order = (tid_b, tid_a,
                      *(t for t in tids if t not in (tid_a, tid_b)))

        def next_moves() -> List[int]:
            # Move order: pull the pair's own threads toward the goal
            # first, then third parties (needed only when a sync
            # constraint blocks the pair).  The racy accesses themselves
            # are only ever scheduled by the goal step in the search
            # loop, so a thread parked at its side of the pair offers
            # no moves.
            moves = []
            for tid in move_order:
                if (tid in (tid_a, tid_b)
                        and ptr[tid] == len(sequences[tid]) - 1):
                    continue
                index = enabled(tid)
                if index is not None:
                    moves.append(index)
            return moves

        # Iterative DFS (schedules can be far deeper than the Python
        # recursion limit).  Each stack frame is (move that entered the
        # state, iterator over the state's moves); popping a frame
        # undoes its move.
        found = False
        nodes = 1
        if at_goal():
            apply(first_at)
            apply(second_at)
            found = True
        stack: List[Tuple[Optional[int], object]] = []
        if not found:
            visited.add(state_key())
            stack.append((None, iter(next_moves())))
        while stack and not found:
            move = next(stack[-1][1], None)
            if move is None:
                entered_by, _ = stack.pop()
                if entered_by is not None:
                    undo(entered_by)
                continue
            apply(move)
            nodes += 1
            if nodes > self.max_nodes:
                undo(move)
                break
            if at_goal():
                apply(first_at)
                apply(second_at)
                found = True
                break
            key = state_key()
            if key in visited:
                undo(move)
                continue
            visited.add(key)
            stack.append((move, iter(next_moves())))

        self.nodes_total += nodes
        if not found:
            return None
        kept = schedule if self.tail is None else schedule[-self.tail:]
        return WitnessSchedule(
            steps=tuple(step_of(events[index]) for index in kept),
            total_steps=len(schedule),
            nodes_explored=nodes,
        )


class ReferencePEBSEngine(PEBSEngine):
    """The reference for the PEBS countdown that the run loop keeps: the
    engine as it was when it took every retired access.

    It overrides ``on_memory_access`` instead of counting down, so the
    machine hands it every access.  Before it counts one it asks, as the
    machine used to, whether its counter could fire, and only then
    takes the register snapshot, from *threads* (the traced machine's
    ``threads``) as the machine took it.  Accounting, buffers and
    drains are the engine's own.  The differential tests assert that
    both engines produce the same trace bytes, samples, accounting and
    governor report.
    """

    counts_down = False

    def __init__(self, config, driver=PRORACE_DRIVER, seed=0,
                 segment_records=None, *, threads) -> None:
        super().__init__(config, driver, seed, segment_records)
        self._threads = threads
        self._core_of: Dict[int, int] = {}

    @property
    def _max_weight(self) -> int:
        plan = self.load_bursts
        return plan.multiplier if plan is not None else 1

    def _counter(self, core: int) -> int:
        if core not in self.counters:
            self.counters[core] = self._initial_count()
        return self.counters[core]

    def _monitored(self, event: MemoryAccessEvent) -> bool:
        if event.is_store:
            return self.config.monitor_stores
        return self.config.monitor_loads

    def on_thread_start(self, tsc: int, tid: int, core: int, ip: int) -> None:
        self._core_of[tid] = core
        self._counter(core)  # materialize the counter

    def wants_register_snapshot(self, tid: int) -> bool:
        if self.disabled:
            return False
        core = self._core_of.get(tid)
        if core is None:
            return False
        # Under a load-burst plan one access can decrement the counter by
        # up to ``multiplier``, so any count within that reach may fire;
        # with no plan this is exactly the classic ``count == 1`` (stored
        # counts are always >= 1).
        return self._counter(core) <= self._max_weight

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        # This engine takes its own register snapshot, when it could
        # fire, as the machine used to.
        snapshot = None
        if self.wants_register_snapshot(event.tid):
            snapshot = self._threads[event.tid].registers.snapshot()
            snapshot["rip"] = event.ip
        if self.disabled or not self._monitored(event):
            return
        if self.stall_at is not None and event.tsc >= self.stall_at:
            return  # wedged: events retire, the engine records nothing
        core = event.core
        weight = (self.load_bursts.weight(event.tsc)
                  if self.load_bursts is not None else 1)
        count = self._counter(core) - weight
        if count > 0:
            self.counters[core] = count
            return
        if snapshot is None:
            raise RuntimeError("PEBS fired without a register snapshot")
        self.on_overflow(event, snapshot)


def reference_trace_run(program, seed=0, num_cores=4, machine=None,
                        **kwargs):
    """``trace_run`` with a :class:`ReferencePEBSEngine` in place of the
    PEBS engine; the arguments are ``trace_run``'s."""
    if machine is None:
        machine = Machine(program, num_cores=num_cores, seed=seed)

    def engine(config, driver, seed):
        return ReferencePEBSEngine(config, driver=driver, seed=seed,
                                   threads=machine.threads)

    with mock.patch.object(repro.tracing.bundle, "PEBSEngine", engine):
        return repro.tracing.bundle.trace_run(
            program, seed=seed, machine=machine, **kwargs)


def reference_merged_events(context):
    """The scalar reference for the merged stream of a replayed
    :class:`~repro.analysis.context.AnalysisContext`: every replayed
    access lowered to its own ``(key, Access)`` pair, the per-thread
    lists ``heapq.merge``-d with the sync stream, and the truncation
    rule applied one event at a time.  Shares only the sync stream and
    the effective cutoff with the context.

    Returns ``(events, suppressed)``: the ``(key, event)`` pairs in
    stream order and the number of accesses the truncation rule
    dropped.
    """
    streams: List[List[Tuple[EventKey, object]]] = [context.sync_events]
    generation_of = context.alloc_index.generation
    for tid in sorted(context._threads):
        timeline = context.timelines[tid]
        key_fn = context.merge_key_fn(tid)
        events = []
        for access in context._threads[tid].accesses:
            step = access.step_index
            tsc = timeline.tsc_of(step)
            key_tsc = key_fn(step, tsc) if key_fn is not None else tsc
            events.append((
                access_sort_key(key_tsc, tid, step),
                Access(
                    tid=tid,
                    var=(access.address, generation_of(access.address, tsc)),
                    kind=(AccessKind.WRITE if access.is_store
                          else AccessKind.READ),
                    ip=access.ip,
                    tsc=tsc,
                    provenance=access.provenance,
                    taint=access.taint,
                ),
            ))
        streams.append(events)
    merged = heapq.merge(*streams, key=itemgetter(0))
    cutoff = context._effective_cutoff()
    if cutoff is None:
        return list(merged), 0
    kept = []
    suppressed = 0
    for key, event in merged:
        # Keep only accesses provably before the cutoff: the next exact
        # timeline anchor bounds an access's true time from above.
        if (isinstance(event, Access)
                and context.timelines[event.tid].upper_bound(key[3])
                > cutoff):
            suppressed += 1
            continue
        kept.append((key, event))
    return kept, suppressed


def retired_at_deactivation(machine) -> list:
    """Record, at each call of *machine*'s controller's ``_deactivate``,
    the instructions *machine* has retired so far; returns the list the
    records go to."""
    controller = machine.controller
    deactivate = controller._deactivate
    retired_at = []

    def snapshot(*args, **kwargs):
        retired_at.append(machine._instructions)
        deactivate(*args, **kwargs)

    controller._deactivate = snapshot
    return retired_at


def last_position_of(events, access) -> int:
    """The position of the last access in *events* (a plain event
    stream) that matches *access* on thread, variable, kind and ip."""
    return max(index for index, event in enumerate(events)
               if isinstance(event, Access)
               and (event.tid, event.var, event.kind, event.ip)
               == (access.tid, access.var, access.kind, access.ip))


class ReferenceFastTrack(HBDetectorBackend):
    """The reference for FastTrack's column access routine: the scalar
    path as it was when every event arrived as an :class:`Access`.

    :meth:`access` checks the same-epoch fast path and runs the race
    logic on the access's fields, and every report's ``second`` is the
    access itself.  *gidx*, the event's merged-stream position, is each
    report's ``index`` (-1 when not given).  The differential tests
    assert that ``FastTrack`` gives the same ``races`` (positions
    included), ``accesses_processed`` and ``sync_processed`` through
    every feed.
    """

    name = "fasttrack"

    def __init__(self) -> None:
        super().__init__()
        self._vars: Dict[Tuple[int, int], _VarState] = {}

    def access(self, access: Access, gidx: int = -1) -> None:
        if access.is_write:
            self._write(access, gidx)
        else:
            self._read(access, gidx)

    def _report(self, access, gidx, first_tid, first_kind, first_ip):
        self.races.append(RaceReport(
            var=access.var, first_tid=first_tid, first_kind=first_kind,
            first_ip=first_ip, second=access, index=gidx))

    def _read(self, access: Access, gidx: int) -> None:
        self.accesses_processed += 1
        tid = access.tid
        clock = self._clock(tid)
        current = clock.get(tid)
        state = self._vars.get(access.var)
        if state is not None:
            read_vc = state.read_vc
            if read_vc is None:
                if state.read_clock == current and state.read_tid == tid:
                    return
            elif read_vc.get(tid) == current:
                return
        else:
            state = self._vars[access.var] = _VarState()

        write_tid = state.write_tid
        if write_tid >= 0 and state.write_clock > clock.get(write_tid):
            self._report(access, gidx, write_tid, AccessKind.WRITE,
                         state.write_ip)
        if state.read_vc is None:
            read_tid = state.read_tid
            if read_tid < 0 or state.read_clock <= clock.get(read_tid):
                state.read_clock = current
                state.read_tid = tid
                state.read_ip = access.ip
            else:
                vc = VectorClock()
                vc.set(read_tid, state.read_clock)
                vc.set(tid, current)
                state.read_vc = vc
                state.read_ips = {
                    read_tid: (state.read_ip
                               if state.read_ip is not None else -1),
                    tid: access.ip,
                }
        else:
            state.read_vc.set(tid, current)
            state.read_ips[tid] = access.ip

    def _write(self, access: Access, gidx: int) -> None:
        self.accesses_processed += 1
        tid = access.tid
        clock = self._clock(tid)
        current = clock.get(tid)
        state = self._vars.get(access.var)
        if state is not None:
            if state.write_clock == current and state.write_tid == tid:
                return
        else:
            state = self._vars[access.var] = _VarState()

        write_tid = state.write_tid
        if write_tid >= 0 and state.write_clock > clock.get(write_tid):
            self._report(access, gidx, write_tid, AccessKind.WRITE,
                         state.write_ip)
        read_vc = state.read_vc
        if read_vc is None:
            read_tid = state.read_tid
            if read_tid >= 0 and state.read_clock > clock.get(read_tid):
                self._report(access, gidx, read_tid, AccessKind.READ,
                             state.read_ip)
        else:
            if not clock.covers(read_vc):
                for rtid, rclock in read_vc.items():
                    if rclock > clock.get(rtid):
                        self._report(access, gidx, rtid, AccessKind.READ,
                                     (state.read_ips or {}).get(rtid))
            state.read_vc = None
            state.read_ips = None
            state.read_clock = 0
            state.read_tid = -1
            state.read_ip = None
        state.write_clock = current
        state.write_tid = tid
        state.write_ip = access.ip


def scalar_findings(pipeline, bundle):
    """The scalar reference for the batched detection feed.

    Feeds :func:`reference_merged_events` of the final round of
    ``pipeline.analyze(bundle)`` — which must have run on this very
    bundle object — through fresh backends' ``sync()``/``access()`` one
    event at a time, each access with its stream position, and returns
    their findings keyed by backend name.  ``fasttrack`` is
    :class:`ReferenceFastTrack`.
    """
    analyzed, context, _replay = pipeline._analyzed
    assert analyzed is bundle, "analyze() this bundle first"
    events, _suppressed = reference_merged_events(context)
    backends = [ReferenceFastTrack() if name == "fasttrack"
                else create_backend(name) for name in pipeline.detectors]
    for position, (_key, event) in enumerate(events):
        for backend in backends:
            if isinstance(event, SyncOp):
                backend.sync(event)
            else:
                backend.access(event, position)
    return {backend.name: backend.finish() for backend in backends}


def thread_sharded_findings(pipeline, bundle, shards):
    """Address-sharded FastTrack on the thread executor, the fan-out of
    platforms that cannot fork, over the final stream of
    ``pipeline.analyze(bundle)`` (which must have run on this very
    bundle object)."""
    analyzed, context, _replay = pipeline._analyzed
    assert analyzed is bundle, "analyze() this bundle first"
    return run_sharded_fasttrack(context, shards=shards,
                                 executor="thread").finish()


@dataclass
class FromScratch:
    """What :func:`analyze_from_scratch` found, under the attribute
    names of :class:`~repro.analysis.pipeline.DetectionResult`."""

    findings: DetectionFindings
    regeneration_rounds: int
    replay: ReplayResult
    events_processed: int

    @property
    def races(self) -> List[RaceReport]:
        return list(self.findings.races)

    @property
    def racy_addresses(self) -> FrozenSet[int]:
        return self.findings.racy_addresses


def analyze_from_scratch(program, bundle) -> FromScratch:
    """The from-scratch reference for the analysis context's round
    cache: the §5.1 loop of ``OfflinePipeline.analyze`` with a fresh
    context, decoded and replayed anew, every round.

    A fresh context reuses no thread, so no round can end early on an
    unchanged replay; an unchanged round instead reproduces the
    previous verdicts, adds no poison, and ends the loop at the same
    round count.
    """
    pipeline = OfflinePipeline(program)
    poisoned: FrozenSet[int] = frozenset()
    rounds = 0
    while True:
        rounds += 1
        context = pipeline.context_for(bundle)
        replay = context.replay(poisoned)
        backends, events_processed = pipeline._detection_pass(context)
        racy = backends[0].racy_addresses()
        poison_hits = set()
        for accesses in replay.per_thread.values():
            for access in accesses:
                if access.taint:
                    poison_hits |= access.taint & racy
        if (not poison_hits or poison_hits <= poisoned
                or rounds > MAX_REGENERATIONS):
            break
        poisoned = poisoned | frozenset(poison_hits)
    return FromScratch(backends[0].finish(), rounds, replay,
                       events_processed)


# ---------------------------------------------------------------------------
# PT streams as rows, and the packet-list reference
# ---------------------------------------------------------------------------

#: The kinds-column code of a packet of no kind (no container carries it).
NO_KIND = len(PacketKind)


def rows(trace: PTThreadTrace) -> List[Tuple[Optional[PacketKind], int, int]]:
    """*trace*'s packets as ``(kind, tsc, value)`` rows; the kind is None
    for a code that names no kind."""
    return [(kind_of(code), tsc, value) for code, tsc, value
            in zip(trace.kinds, trace.tscs, trace.values)]


def stream_of(packet_rows, tid: int = 0, start_ip: int = 0,
              start_tsc: int = 0, **header) -> PTThreadTrace:
    """A :class:`PTThreadTrace` of ``(kind, tsc, value)`` rows; a kind of
    None becomes :data:`NO_KIND`.  *header* takes ``end_tsc`` and
    ``truncated``."""
    packet_rows = list(packet_rows)
    return PTThreadTrace(
        tid=tid, start_ip=start_ip, start_tsc=start_tsc,
        kinds=array("B", [NO_KIND if kind is None else kind.value
                          for kind, _tsc, _value in packet_rows]),
        tscs=array("q", [tsc for _kind, tsc, _value in packet_rows]),
        values=array("q", [value for _kind, _tsc, value in packet_rows]),
        **header)


def with_rows(trace: PTThreadTrace, packet_rows) -> PTThreadTrace:
    """*trace*'s header over other packets."""
    columns = stream_of(packet_rows)
    return dataclasses.replace(trace, kinds=columns.kinds,
                               tscs=columns.tscs, values=columns.values)


@dataclass(frozen=True)
class PTPacket:
    """One packet as the reference packetizer builds it: an object per
    branch, its payload in ``target`` (TIP, OVF) or ``bit`` (TNT)."""

    kind: PacketKind
    tsc: int
    target: Optional[int] = None
    bit: Optional[bool] = None

    @property
    def row(self) -> Tuple[PacketKind, int, int]:
        """``(kind, tsc, value)``, the value as the reference encoder
        writes it."""
        if self.kind in (PacketKind.TIP, PacketKind.OVF):
            value = self.target or 0
        elif self.kind == PacketKind.TNT:
            value = int(bool(self.bit))
        else:
            value = 0
        return self.kind, self.tsc, value


@dataclass
class PacketStream:
    """The reference for :class:`PTThreadTrace`: one thread's packets as
    a list of :class:`PTPacket`."""

    tid: int
    start_ip: int
    start_tsc: int
    packets: List[PTPacket] = dataclasses.field(default_factory=list)
    end_tsc: Optional[int] = None
    truncated: bool = False

    @property
    def rows(self):
        return [packet.row for packet in self.packets]

    def size_bytes(self, config: PTConfig) -> int:
        total = PSB_BYTES + TIP_BYTES
        packet_count = 2
        tnt_run = 0
        for packet in self.packets:
            if packet.kind == PacketKind.TNT:
                tnt_run += 1
                continue
            total += -(-tnt_run // TNT_BITS_PER_BYTE)
            packet_count += -(-tnt_run // TNT_BITS_PER_BYTE)
            tnt_run = 0
            total += TIP_BYTES
            packet_count += 1
        total += -(-tnt_run // TNT_BITS_PER_BYTE)
        packet_count += -(-tnt_run // TNT_BITS_PER_BYTE)
        if self.end_tsc is not None and config.mtc_period > 0:
            elapsed = max(0, self.end_tsc - self.start_tsc)
            total += MTC_BYTES * (elapsed // config.mtc_period)
        if config.psb_period > 0:
            total += PSB_BYTES * (packet_count // config.psb_period)
        return total


def assert_same_stream(trace: PTThreadTrace, reference: PacketStream):
    """*trace* holds *reference*'s header and packets, row by row."""
    assert (trace.tid, trace.start_ip, trace.start_tsc, trace.end_tsc,
            trace.truncated) == (reference.tid, reference.start_ip,
                                 reference.start_tsc, reference.end_tsc,
                                 reference.truncated)
    assert rows(trace) == reference.rows


def assert_same_streams(traces, references):
    assert sorted(traces) == sorted(references)
    for tid in traces:
        assert_same_stream(traces[tid], references[tid])


class ReferencePTPacketizer(MachineObserver):
    """The reference for :class:`~repro.pmu.pt.PTPacketizer`: the
    packetizer as it was when it built a :class:`PTPacket` for every
    branch and appended it to a list."""

    def __init__(self, config: PTConfig = PTConfig()) -> None:
        self.config = config
        self.traces: Dict[int, PacketStream] = {}
        self._ret_stacks: Dict[int, List[int]] = {}
        self.branches_seen = 0
        self.packets_emitted = 0
        self.shedding = False
        self._shed_open: Dict[int, List[int]] = {}
        self._shed_gaps = 0
        self._shed_packets = 0
        self._shed_bytes = 0

    def begin_shed(self, tsc: int) -> None:
        if self.shedding:
            return
        self.shedding = True
        self._shed_open = {}

    def end_shed(self, tsc: int) -> Tuple[int, int, int]:
        for tid in list(self._shed_open):
            self._flush_shed_span(tid)
        self.shedding = False
        totals = (self._shed_gaps, self._shed_packets, self._shed_bytes)
        self._shed_gaps = self._shed_packets = self._shed_bytes = 0
        return totals

    def _shed_packet(self, trace: PacketStream, packet: PTPacket) -> None:
        span = self._shed_open.setdefault(
            trace.tid, [packet.tsc, packet.tsc, 0, 0])
        span[1] = packet.tsc
        if packet.kind == PacketKind.TNT:
            span[2] += 1
        else:
            span[3] += 1
        self._shed_packets += 1

    def _flush_shed_span(self, tid: int) -> None:
        span = self._shed_open.pop(tid, None)
        if span is None:
            return
        first_tsc, last_tsc, tnt_bits, others = span
        self.traces[tid].packets.append(
            PTPacket(PacketKind.OVF, first_tsc, target=last_tsc))
        self.packets_emitted += 1
        self._shed_gaps += 1
        self._shed_bytes += (
            -(-tnt_bits // TNT_BITS_PER_BYTE) + others * TIP_BYTES)

    def on_thread_start(self, tsc: int, tid: int, core: int, ip: int) -> None:
        self.traces[tid] = PacketStream(tid=tid, start_ip=ip, start_tsc=tsc)
        self._ret_stacks[tid] = []

    def on_thread_exit(self, tsc: int, tid: int) -> None:
        trace = self.traces[tid]
        if self.shedding:
            self._flush_shed_span(tid)
        trace.packets.append(PTPacket(PacketKind.END, tsc))
        trace.end_tsc = tsc
        self.packets_emitted += 1

    def on_branch(self, tsc, tid, ip, target, taken, conditional, indirect,
                  is_call) -> None:
        self.branches_seen += 1
        trace = self.traces[tid]
        if not self.config.in_region(ip):
            trace.truncated = True
            return
        stack = self._ret_stacks[tid]
        if conditional:
            self._emit(trace, PTPacket(PacketKind.TNT, tsc, bit=taken))
            return
        if not indirect:
            if is_call:
                stack.append(ip + 1)
                if len(stack) > RET_STACK_DEPTH:
                    del stack[0]
            return
        if self.config.ret_compression and stack and stack[-1] == target:
            stack.pop()
            self._emit(trace, PTPacket(PacketKind.TNT, tsc, bit=True))
            return
        self._emit(trace, PTPacket(PacketKind.TIP, tsc, target=target))

    def _emit(self, trace: PacketStream, packet: PTPacket) -> None:
        if self.shedding:
            self._shed_packet(trace, packet)
            return
        trace.packets.append(packet)
        self.packets_emitted += 1

    def total_size_bytes(self) -> int:
        return sum(t.size_bytes(self.config) for t in self.traces.values())


def reference_pt_trace_run(program, seed=0, num_cores=4, machine=None,
                           **kwargs):
    """``trace_run`` with a :class:`ReferencePTPacketizer` in place of the
    packetizer; the bundle's ``pt_traces`` are :class:`PacketStream`\\ s."""
    with mock.patch.object(repro.tracing.bundle, "PTPacketizer",
                           ReferencePTPacketizer):
        return repro.tracing.bundle.trace_run(
            program, seed=seed, num_cores=num_cores, machine=machine,
            **kwargs)


def reference_encode_pt(trace: PacketStream) -> bytes:
    """The reference for the container's PT section writer."""
    out = io.BytesIO()
    end_tsc = 0 if trace.end_tsc is None else trace.end_tsc + 1
    out.write(serialize._PT_HEADER.pack(
        trace.tid, trace.start_ip, trace.start_tsc, end_tsc,
        int(trace.truncated), len(trace.packets)))
    for packet in trace.packets:
        kind, tsc, value = packet.row
        out.write(serialize._PACKET.pack(
            _REFERENCE_KINDS.index(kind), tsc, value))
    return out.getvalue()


#: The container's packet kinds, in code order.
_REFERENCE_KINDS = (PacketKind.TIP, PacketKind.TNT, PacketKind.END,
                    PacketKind.OVF)


def reference_decode_pt(payload) -> PacketStream:
    """The reference for the container's PT section reader."""
    header = serialize._PT_HEADER
    if len(payload) < header.size:
        raise serialize.TraceFormatError("truncated PT header")
    tid, start_ip, start_tsc, end_tsc, truncated, count = \
        header.unpack_from(payload, 0)
    packets = []
    offset = header.size
    expected = offset + count * serialize._PACKET.size
    if len(payload) != expected:
        raise serialize.TraceFormatError(
            f"PT stream length mismatch: {len(payload)} != {expected}")
    for _ in range(count):
        kind_id, tsc, value = serialize._PACKET.unpack_from(payload, offset)
        offset += serialize._PACKET.size
        try:
            kind = _REFERENCE_KINDS[kind_id]
        except IndexError:
            raise serialize.TraceFormatError(
                f"bad packet kind {kind_id}") from None
        if kind in (PacketKind.TIP, PacketKind.OVF):
            packets.append(PTPacket(kind, tsc, target=value))
        elif kind == PacketKind.TNT:
            packets.append(PTPacket(kind, tsc, bit=bool(value)))
        else:
            packets.append(PTPacket(kind, tsc))
    return PacketStream(
        tid=tid, start_ip=start_ip, start_tsc=start_tsc, packets=packets,
        end_tsc=None if end_tsc == 0 else end_tsc - 1,
        truncated=bool(truncated))


def reference_trace_to_bytes(bundle, version=None) -> bytes:
    """``trace_to_bytes`` of a bundle of :class:`PacketStream`\\ s, through
    the reference PT section writer."""
    with mock.patch.object(serialize, "_encode_pt", reference_encode_pt):
        return serialize.trace_to_bytes(bundle, version=version)


def reference_inject_pt_gaps(plan, rng, pt_traces, defects):
    """The reference for ``FaultPlan._inject_pt_gaps`` over
    :class:`PacketStream`\\ s: one packet span per thread replaced with
    an OVF marker."""
    degraded = {}
    for tid in sorted(pt_traces):
        trace = pt_traces[tid]
        packets = trace.packets
        length = max(1, int(len(packets) * plan.pt_gap))
        if len(packets) < 4 or length >= len(packets):
            degraded[tid] = trace
            continue
        start = rng.randrange(0, len(packets) - length)
        lost = packets[start:start + length]
        marker = PTPacket(PacketKind.OVF, lost[0].tsc, target=lost[-1].tsc)
        degraded[tid] = dataclasses.replace(
            trace,
            packets=packets[:start] + [marker] + packets[start + length:])
        defects.pt_gaps += 1
        defects.pt_packets_lost += length
    return degraded


def reference_apply_gaps(plan, bundle):
    """``plan.apply`` of a plan with no clock faults to a bundle of
    :class:`PacketStream`\\ s, its PT gaps injected by
    :func:`reference_inject_pt_gaps`."""
    assert not plan.clock_intensity
    with mock.patch.object(FaultPlan, "_inject_pt_gaps",
                           reference_inject_pt_gaps):
        return plan.apply(bundle)


def reference_clock_fault_streams(bundle, plan) -> Dict[int, PacketStream]:
    """The reference for the PT part of ``inject_clock_faults``:
    *bundle*'s :class:`PacketStream`\\ s re-timestamped through *plan*'s
    per-core faulty clocks, packet by packet."""
    cores = core_of_map(bundle)
    num_cores = max(list(cores.values()) + [3]) + 1
    horizon = max(1, bundle.run.tsc)
    core_plan = plan_core_faults(num_cores, plan.clock_skew,
                                 plan.clock_drift, plan.clock_step,
                                 horizon, plan.seed)
    regressor = _Regressor(plan.seed, plan.clock_regress)
    streams = {}
    for tid, trace in bundle.pt_traces.items():
        core = cores.get(tid, tid % num_cores)
        clock = core_plan[core % len(core_plan)]
        disturb = regressor.stream(tid * 4 + 3)
        packets = []
        for packet in trace.packets:
            if packet.kind is PacketKind.OVF and packet.target is not None:
                packets.append(dataclasses.replace(
                    packet, tsc=disturb(clock.observe(packet.tsc)),
                    target=clock.observe(packet.target)))
            else:
                packets.append(dataclasses.replace(
                    packet, tsc=disturb(clock.observe(packet.tsc))))
        streams[tid] = dataclasses.replace(
            trace, start_tsc=clock.observe(trace.start_tsc),
            end_tsc=(clock.observe(trace.end_tsc)
                     if trace.end_tsc is not None else None),
            packets=packets)
    return streams


def reference_repair_streams(streams) -> Tuple[Dict[int, PacketStream], int]:
    """The reference for the PT part of ``repair_streams``: each
    stream's packet TSCs clamped to their running maximum.  Returns the
    streams and the packets moved."""
    repaired = {}
    moved_total = 0
    for tid, trace in streams.items():
        values, moved, _worst = repair_monotonic(
            [p.tsc for p in trace.packets])
        if moved:
            moved_total += moved
            repaired[tid] = dataclasses.replace(trace, packets=[
                packet if packet.tsc == value
                else dataclasses.replace(packet, tsc=value)
                for packet, value in zip(trace.packets, values)])
        else:
            repaired[tid] = trace
    return repaired, moved_total


def reference_corrected_streams(bundle, streams, model):
    """The reference for the PT part of ``apply_clock_correction``:
    *streams* (*bundle*'s, clock-faulted) corrected through *model*
    packet by packet, then repaired.  Returns the streams and the
    packets the repair moved."""
    cores = core_of_map(bundle)
    corrected = {}
    for tid, trace in streams.items():
        fix = model.fit_for(cores.get(tid, tid % 4)).correct
        packets = []
        for packet in trace.packets:
            if packet.kind is PacketKind.OVF and packet.target is not None:
                packets.append(dataclasses.replace(
                    packet, tsc=fix(packet.tsc), target=fix(packet.target)))
            else:
                packets.append(dataclasses.replace(packet,
                                                   tsc=fix(packet.tsc)))
        corrected[tid] = dataclasses.replace(
            trace, start_tsc=fix(trace.start_tsc),
            end_tsc=fix(trace.end_tsc) if trace.end_tsc is not None
            else None,
            packets=packets)
    return reference_repair_streams(corrected)
