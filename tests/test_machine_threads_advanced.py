"""Advanced threading semantics: nested spawns, multi-waiter joins,
core-private PEBS counters, scheduler knobs."""

from repro.isa import assemble
from repro.machine import Machine
from repro.pmu import PEBSConfig, PEBSEngine

from tests.helpers import run_machine


class TestNestedThreads:
    def test_grandchild_threads(self):
        source = """
.global total 0
.global lockvar 0
main:
    spawn child, %rbx
    join %rbx
    halt
child:
    spawn grandchild, %r12
    lock $lockvar
    mov total(%rip), %rax
    add $1, %rax
    mov %rax, total(%rip)
    unlock $lockvar
    join %r12
    halt
grandchild:
    lock $lockvar
    mov total(%rip), %rax
    add $10, %rax
    mov %rax, total(%rip)
    unlock $lockvar
    halt
"""
        program = assemble(source)
        for seed in range(6):
            machine, result = run_machine(program, seed=seed)
            assert result.threads == 3
            assert machine.memory.load(program.symbols["total"]) == 11

    def test_multiple_waiters_on_one_thread(self):
        source = """
.global done 0
main:
    spawn slow, %rbx
    mov %rbx, %rdi
    spawn waiter, %r12
    join %rbx
    mov done(%rip), %rax
    add $1, %rax
    mov %rax, done(%rip)
    join %r12
    halt
slow:
    mov $20, %rcx
s_loop:
    dec %rcx
    cmp $0, %rcx
    jne s_loop
    halt
waiter:
    join %rdi
    mov done(%rip), %rax
    add $1, %rax
    mov %rax, done(%rip)
    halt
"""
        # Both main and waiter join the same slow thread.  The two `done`
        # increments race with each other (no lock) but both must run.
        program = assemble(source)
        machine, result = run_machine(program, seed=4)
        assert result.threads == 3
        assert machine.memory.load(program.symbols["done"]) >= 1


class TestPerCoreCounters:
    SOURCE = """
.global a 0
.global b 0
main:
    spawn worker, %rbx
    mov $30, %rcx
m_loop:
    mov a(%rip), %rax
    mov %rax, a(%rip)
    dec %rcx
    cmp $0, %rcx
    jne m_loop
    join %rbx
    halt
worker:
    mov $30, %rcx
w_loop:
    mov b(%rip), %rax
    mov %rax, b(%rip)
    dec %rcx
    cmp $0, %rcx
    jne w_loop
    halt
"""

    def test_both_cores_sample(self):
        program = assemble(self.SOURCE)
        machine = Machine(program, num_cores=2, seed=1)
        pebs = PEBSEngine(PEBSConfig(period=5), seed=2)
        machine.attach(pebs)
        machine.run()
        cores = {sample.core for sample in pebs.samples}
        assert cores == {0, 1}

    def test_single_core_still_samples_all_threads(self):
        program = assemble(self.SOURCE)
        machine = Machine(program, num_cores=1, seed=1)
        pebs = PEBSEngine(PEBSConfig(period=5), seed=2)
        machine.attach(pebs)
        machine.run()
        tids = {sample.tid for sample in pebs.samples}
        assert tids == {0, 1}
        assert all(sample.core == 0 for sample in pebs.samples)


class TestSchedulerKnobs:
    def test_zero_preemption_runs_quantum_blocks(self, clean_program):
        machine = Machine(clean_program, seed=0, preempt_probability=0.0,
                          quantum=1_000_000)
        result = machine.run()
        assert result.instructions > 0

    def test_tiny_quantum_loses_updates(self, racy_program):
        # With quantum=1 every instruction boundary switches: the racy
        # read-modify-write reliably loses updates (8×1 + 8×2 = 24 would
        # be the race-free total).
        machine = Machine(racy_program, seed=0, quantum=1)
        machine.run()
        assert machine.memory.load(racy_program.symbols["racy"]) < 24

    def test_small_quantum_diversifies_outcomes(self):
        from tests.helpers import RACY_ASM

        finals = set()
        for seed in range(8):
            program = assemble(RACY_ASM)
            machine = Machine(program, seed=seed, quantum=3)
            machine.run()
            finals.add(machine.memory.load(program.symbols["racy"]))
        assert len(finals) > 1  # schedule-dependent outcomes


class TestIoOverlap:
    def test_io_threads_overlap_in_time(self):
        source = """
main:
    spawn sleeper, %rbx
    io $10000
    join %rbx
    halt
sleeper:
    io $10000
    halt
"""
        _, result = run_machine(assemble(source), seed=0)
        # Two 10K-cycle waits overlap: total elapsed ≈ 10K, not 20K.
        assert result.tsc < 15_000
        assert result.io_cycles == 20_000
