"""Machine goldens: everything the simulated machine emits, pinned.

The machine is the ground truth every oracle is judged against, and it
drives every trace and every confirmation replay.  These goldens pin
what it emits over the whole workload corpus, so a change to how it
executes (its pre-decoded handler table, its int-slot registers) can be
checked to change nothing observable.  Per input, seed and PEBS driver
the golden file holds blake2b digests of

* ``trace_to_bytes(bundle)`` — every PEBS sample with its register
  snapshot, every PT packet and every sync-log record;
* ``repr(bundle.ground_truth.accesses)`` — the complete access stream,
  with TSCs, values and emission sequence numbers;
* ``repr(bundle.run)`` — the :class:`~repro.machine.RunResult`;

plus one governed trace per Table 2 program and, for the Table 2
programs, the whole ``confirm_races(...).to_dict()`` of the detect →
confirm flow, whose schedule-controlled replays run the machine under
a controller.

The corpus never executes some opcodes (calls, stack ops, condition
variables...), so two hand-written programs join it; a test asserts
that the inputs together execute every :class:`~repro.isa.Op`.

Recording the goldens (only ever on a commit whose machine is trusted)::

    PYTHONPATH=src python tests/test_machine_golden.py
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import OfflinePipeline
from repro.confirm import ConfirmConfig, confirm_races
from repro.isa import Op, assemble
from repro.machine import Machine
from repro.pmu.drivers import PRORACE_DRIVER, VANILLA_DRIVER
from repro.pmu.governor import GovernorConfig
from repro.tracing import trace_run, trace_to_bytes
from repro.workloads import (
    APP_WORKLOADS,
    PARSEC_WORKLOADS,
    RACE_BUGS,
    WorkloadScale,
    generate_server_program,
)

GOLDEN = Path(__file__).parent / "golden" / "machine.json"
SCALE = WorkloadScale(iterations=8, threads=2, data_words=8, io_cycles=50)
SEEDS = (0, 3)
DRIVERS = {"prorace": PRORACE_DRIVER, "vanilla": VANILLA_DRIVER}
#: A short PEBS period, so many samples carry register snapshots.
PERIOD = 13

#: Calls and returns (direct, computed and to the thread's exit
#: sentinel), every stack op (``pop %rsp`` included: the stack-pointer
#: update lands after the destination write), every ALU op over
#: register, immediate and memory sources, every addressing mode, every
#: conditional branch taken and not taken, an indirect jump, and a heap
#: round trip.
STACK_ASM = """
.global acc 0
.global neg_one -1
.array table 3 1 4 1 5 9 2 6
.reserve buf 8
main:
    nop
    spawn child, %rbp
    mov $0, %rdx
    mov $12, %rcx
    lea table(%rip), %rsi
outer:
    push %rcx
    push $5
    push 8(%rsi)
    call body
    pop %rax
    pop %rbx
    pop %rcx
    add %rax, %rdx
    imul %rbx, %rdx
    dec %rcx
    cmp $0, %rcx
    jge outer
    lea -64(%rsp), %rax
    push %rax
    pop %rsp
    mov %rdx, acc(%rip)
    call here
    add $4, %rax
    jmp %rax
    halt
    halt
    mov $2, %r9
    lea 16(%rsi,%r9,8), %r10
    mov (%r10), %r11
    mov table(,%r9,8), %r12
    lea 8(%rsi), %rdi
    lea table(,%r9,8), %rdi
    mov %r12, buf()
    mov $77, 8(%rdi)
    mov $9, 8(%rsi)
    sub 8(%rsi), %r11
    and $255, %r11
    or %r9, %r11
    xor acc(%rip), %r11
    shl $3, %r11
    shr %r9, %r11
    neg %r11
    not %r11
    inc %r11
    imul neg_one(%rip), %r11
    test $1, %r11
    je even
    test %r11, %r11
    jl negative
    jmp tail
even:
    test (%rsi), %r11
    jne tail
negative:
    nop
tail:
    cmp %r11, acc(%rip)
    jle small
    cmp 8(%rsi), %r9
    jg small
small:
    malloc $24, %r8
    mov %r11, (%r8)
    mov $1, %r13
    mov %r13, 8(%r8,%r13,8)
    mov 16(%r8), %r14
    push %r14
    free %r8
    join %rbp
    mov $4, %rax
    call here
    add $4, %rax
    push %rax
    ret
    halt
    pop %r15
    halt
here:
    mov (%rsp), %rax
    ret
body:
    mov 8(%rsp), %rax
    add 16(%rsp), %rax
    mov %rax, 16(%rsp)
    shl $1, %rax
    mov %rax, 8(%rsp)
    ret
child:
    mov $9, %rcx
spin:
    push %rcx
    call body2
    pop %rcx
    dec %rcx
    cmp $1, %rcx
    jge spin
    ret
body2:
    mov acc(%rip), %rax
    inc %rax
    mov %rax, acc(%rip)
    ret
"""

#: Every blocking primitive, contended: condition-variable wait,
#: signal and broadcast (a woken waiter that must queue for the mutex),
#: semaphores that block, reader-writer locks handed between readers and
#: writers, a barrier, a join on a running thread and simulated IO.
SYNC_ASM = """
.global mtx 0
.global cv 0
.global go 0
.global slot 0
.global woken 0
.global sem 0
.global rw 0
.global shared 0
.global bar 0
main:
    spawn waiter, %rbx
    spawn waiter, %r12
    spawn consumer, %r13
    spawn poster, %r14
    mov $20, %rcx
delay:
    dec %rcx
    cmp $0, %rcx
    jne delay
    lock $mtx
    mov $5, %rax
    mov %rax, slot(%rip)
    cond_signal $cv
    mov $1, %rax
    mov %rax, go(%rip)
    cond_broadcast $cv
    io $30
    unlock $mtx
    sem_wait $sem
    sem_wait $sem
    rwlock_wr $rw
    mov shared(%rip), %rax
    add $1, %rax
    mov %rax, shared(%rip)
    rwlock_unlock $rw
    barrier_wait $bar, $3
    join %rbx
    join %r12
    join %r13
    join %r14
    halt
waiter:
    lock $mtx
check:
    mov go(%rip), %rax
    cmp $0, %rax
    jne done
    cond_wait $cv, $mtx
    jmp check
done:
    mov woken(%rip), %rax
    add $1, %rax
    mov %rax, woken(%rip)
    unlock $mtx
    rwlock_rd $rw
    mov shared(%rip), %rax
    io $10
    rwlock_unlock $rw
    halt
consumer:
    lock $mtx
wait_slot:
    mov slot(%rip), %rax
    cmp $0, %rax
    jne got
    cond_wait $cv, $mtx
    jmp wait_slot
got:
    unlock $mtx
    rwlock_wr $rw
    mov shared(%rip), %rax
    add $2, %rax
    io $5
    mov %rax, shared(%rip)
    rwlock_unlock $rw
    barrier_wait $bar, $3
    halt
poster:
    io $40
    sem_post $sem
    io $20
    sem_post $sem
    barrier_wait $bar, $3
    halt
"""


def _programs():
    """(input name, program) for every golden input, in file order."""
    programs = [(f"bug:{name}", bug.build(SCALE))
                for name, bug in RACE_BUGS.items()]
    programs += [(f"app:{name}", workload.build(SCALE))
                 for name, workload in APP_WORKLOADS.items()]
    programs += [(f"parsec:{name}", workload.build(SCALE))
                 for name, workload in PARSEC_WORKLOADS.items()]
    programs.append(("server:1", generate_server_program(1)[0]))
    programs.append(("asm:stack", assemble(STACK_ASM, name="stack")))
    programs.append(("asm:sync", assemble(SYNC_ASM, name="sync")))
    return programs


INPUTS = [name for name, _ in _programs()]
BUGS = [name for name in INPUTS if name.startswith("bug:")]


def _digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _bundle_digests(bundle):
    return {
        "trace": _digest(trace_to_bytes(bundle)),
        "ground_truth": _digest(repr(bundle.ground_truth.accesses)),
        "run": _digest(repr(bundle.run)),
    }


def _counting_machine(program, seed, executed):
    """A machine whose per-instruction hook counts executed opcodes."""
    machine = Machine(program, seed=seed)
    step = machine._step

    def counted(thread):
        executed[program[thread.ip].op] += 1
        step(thread)

    machine._step = counted
    return machine


def _confirmation(program, seed):
    bundle = trace_run(program, period=PERIOD, seed=seed)
    pipeline = OfflinePipeline(program)
    result = pipeline.analyze(bundle)
    events, _replay = pipeline.events_for(bundle)
    report = confirm_races(
        program, result.races, events,
        config=ConfirmConfig(seed=seed, machine_seed=seed),
    )
    # Round-trip through JSON so tuples compare equal to the file's lists.
    return json.loads(json.dumps(report.to_dict()))


@lru_cache(maxsize=None)
def observed():
    """Run every golden input once: ``(entries, executed opcodes)``."""
    entries = {}
    executed: Counter = Counter()
    for name, program in _programs():
        for seed in SEEDS:
            for driver_name, driver in DRIVERS.items():
                bundle = trace_run(
                    program, period=PERIOD, driver=driver, seed=seed,
                    record_ground_truth=True,
                    machine=_counting_machine(program, seed, executed),
                )
                entries[f"{name}/seed{seed}/{driver_name}"] = \
                    _bundle_digests(bundle)
            if name.startswith("bug:"):
                governed = trace_run(
                    program, period=PERIOD, seed=seed,
                    record_ground_truth=True, governor=GovernorConfig(),
                )
                entries[f"{name}/seed{seed}/governor"] = \
                    _bundle_digests(governed)
                entries[f"{name}/seed{seed}/confirm"] = \
                    _confirmation(program, seed)
    return entries, executed


@lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text())


def _entries_of(entries, name):
    prefix = f"{name}/"
    return {key: value for key, value in entries.items()
            if key.startswith(prefix)}


def test_golden_file_covers_every_input():
    entries, _ = observed()
    assert sorted(golden()) == sorted(entries)


@pytest.mark.parametrize("name", INPUTS)
def test_machine_output_unchanged(name):
    entries, _ = observed()
    mine = _entries_of(entries, name)
    assert mine, f"no golden runs for {name}"
    assert mine == _entries_of(golden(), name)


def test_confirmations_pinned_and_nontrivial():
    """The confirm goldens must exercise schedule-controlled replays
    that fire, and at least one retry past the first plan."""
    entries, _ = observed()
    reports = [entries[f"{name}/seed{seed}/confirm"]
               for name in BUGS for seed in SEEDS]
    assert sum(r["counts"]["confirmed"] for r in reports) > 0
    assert any(r["replays_total"] > r["races_reported"] for r in reports)


def test_golden_inputs_execute_every_op():
    _, executed = observed()
    missing = [op.value for op in Op if executed[op] == 0]
    assert not missing, f"no golden input executes {missing}"


if __name__ == "__main__":
    recorded, _ = observed()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} entries to {GOLDEN}")
