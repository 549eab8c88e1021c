"""Shared helpers and program sources for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from repro.analysis.pipeline import MAX_REGENERATIONS, OfflinePipeline
from repro.detector.base import DetectionFindings
from repro.detector.events import RaceReport, SyncOp
from repro.detector.registry import create_backend
from repro.machine import Machine
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
