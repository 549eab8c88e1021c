"""Shared helpers and program sources for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple
from unittest import mock

import repro.tracing.bundle
from repro.analysis.pipeline import MAX_REGENERATIONS, OfflinePipeline
from repro.detector.base import DetectionFindings
from repro.detector.events import (
    Access,
    RaceReport,
    SyncOp,
    WitnessSchedule,
)
from repro.detector.registry import create_backend
from repro.detector.witness import WITNESS_TAIL, step_of
from repro.machine import Machine
from repro.machine.observers import MemoryAccessEvent
from repro.pmu.drivers import PRORACE_DRIVER
from repro.pmu.pebs import PEBSEngine
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

    def on_memory_access(self, event: MemoryAccessEvent,
                         registers: Optional[Dict[str, int]]) -> None:
        # Whatever snapshot the machine passes is ignored: this engine
        # takes its own, when it could fire, as the machine used to.
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


def scalar_findings(pipeline, bundle):
    """The scalar reference for the batched detection feed.

    Feeds the final stream of ``pipeline.analyze(bundle)`` — which must
    have run on this very bundle object — through fresh backends'
    ``sync()``/``access()`` one event at a time, and returns their
    findings keyed by backend name.
    """
    events, _replay = pipeline.events_for(bundle)
    backends = [create_backend(name) for name in pipeline.detectors]
    for _key, event in events:
        for backend in backends:
            if isinstance(event, SyncOp):
                backend.sync(event)
            else:
                backend.access(event)
    return {backend.name: backend.finish() for backend in backends}


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
