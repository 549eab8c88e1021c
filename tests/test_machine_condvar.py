"""Condition-variable semantics and detector integration."""

import pytest

from repro.analysis import OfflinePipeline
from repro.isa import Op, assemble
from repro.machine import MachineError
from repro.tracing import trace_run

from tests.helpers import run_machine

PRODUCER_CONSUMER = """
.global mtx 0
.global cv 0
.global ready 0
.global slot 0
.global got 0
main:
    spawn consumer, %rbx
    mov $30, %rcx
delay:
    dec %rcx
    cmp $0, %rcx
    jne delay
    lock $mtx
    mov $99, %rax
    mov %rax, slot(%rip)
    mov $1, %rax
    mov %rax, ready(%rip)
    cond_signal $cv
    unlock $mtx
    join %rbx
    halt
consumer:
    lock $mtx
check:
    mov ready(%rip), %rax
    cmp $0, %rax
    jne go
    cond_wait $cv, $mtx
    jmp check
go:
    mov slot(%rip), %rax
    mov %rax, got(%rip)
    unlock $mtx
    halt
"""


class TestCondWaitSignal:
    @pytest.mark.parametrize("seed", range(8))
    def test_producer_consumer(self, seed):
        program = assemble(PRODUCER_CONSUMER)
        machine, result = run_machine(program, seed=seed)
        assert machine.memory.load(program.symbols["got"]) == 99

    def test_lost_signal_deadlocks(self):
        """pthread semantics: a signal with no waiter is lost; a waiter
        that misses it (and whose predicate never turns true again)
        sleeps forever — the machine reports the deadlock."""
        source = """
.global mtx 0
.global cv 0
main:
    cond_signal $cv
    spawn waiter, %rbx
    join %rbx
    halt
waiter:
    lock $mtx
    cond_wait $cv, $mtx
    unlock $mtx
    halt
"""
        with pytest.raises(MachineError, match="deadlock"):
            run_machine(assemble(source), seed=0)

    def test_broadcast_wakes_all(self):
        source = """
.global mtx 0
.global cv 0
.global go 0
.global woken 0
.global wlock 0
main:
    spawn waiter, %rbx
    spawn waiter, %r12
    mov $60, %rcx
spinwork:
    dec %rcx
    cmp $0, %rcx
    jne spinwork
    lock $mtx
    mov $1, %rax
    mov %rax, go(%rip)
    cond_broadcast $cv
    unlock $mtx
    join %rbx
    join %r12
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
    unlock $mtx
    lock $wlock
    mov woken(%rip), %rax
    add $1, %rax
    mov %rax, woken(%rip)
    unlock $wlock
    halt
"""
        program = assemble(source)
        for seed in range(6):
            machine, _ = run_machine(program, seed=seed)
            assert machine.memory.load(program.symbols["woken"]) == 2

    def test_waiter_reacquires_mutex_exclusively(self):
        """The signaled waiter must not run its critical section while
        the signaler still holds the mutex."""
        source = """
.global mtx 0
.global cv 0
.global go 0
.global counter 0
main:
    spawn waiter, %rbx
    lock $mtx
    mov $1, %rax
    mov %rax, go(%rip)
    cond_signal $cv
    mov counter(%rip), %rax
    add $1, %rax
    mov %rax, counter(%rip)
    unlock $mtx
    join %rbx
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
    mov counter(%rip), %rax
    add $1, %rax
    mov %rax, counter(%rip)
    unlock $mtx
    halt
"""
        program = assemble(source)
        for seed in range(8):
            machine, _ = run_machine(program, seed=seed)
            assert machine.memory.load(program.symbols["counter"]) == 2


class TestDetectorIntegration:
    @pytest.mark.parametrize("seed", range(4))
    def test_condvar_handoff_is_race_free(self, seed):
        program = assemble(PRODUCER_CONSUMER)
        bundle = trace_run(program, period=1, seed=seed)
        result = OfflinePipeline(program).analyze(bundle)
        assert not result.races, [r.describe() for r in result.races]

    def test_sync_records_include_cond_kinds(self):
        program = assemble(PRODUCER_CONSUMER)
        saw_wait_path = False
        for seed in range(30):
            bundle = trace_run(program, period=5, seed=seed)
            kinds = {r.kind for r in bundle.sync_records}
            assert "cond_signal" in kinds  # the signal always happens
            if "cond_wake" in kinds:
                saw_wait_path = True
        # Across 30 schedules, at least one must block on the condvar.
        assert saw_wait_path

    def test_cond_records_serialize(self, tmp_path):
        from repro.tracing import read_trace, write_trace

        program = assemble(PRODUCER_CONSUMER)
        bundle = trace_run(program, period=5, seed=1)
        path = tmp_path / "cv.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        assert loaded.sync_records == bundle.sync_records


class TestClassification:
    def test_cond_ops_are_system_and_sync(self):
        from repro.isa.instructions import Instruction
        from repro.isa.operands import Imm

        wait = Instruction(Op.COND_WAIT, (Imm(1), Imm(2)))
        assert wait.is_system() and wait.is_sync()
        signal = Instruction(Op.COND_SIGNAL, (Imm(1),))
        assert signal.is_system() and signal.is_sync()
