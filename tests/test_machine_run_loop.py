"""The machine's run loop: its per-instruction hook, its error paths,
its instruction budget, where a controlled run ends, and that a
finished machine frees itself.

Several oracles (``tests.helpers.record_states``, the PT decode
fidelity checks) wrap an instance's ``_step`` to see every retired
instruction, so the run loop must call ``self._step`` exactly once per
instruction on every scheduling path.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.analysis import OfflinePipeline
from repro.detector.witness import WitnessPlanner
from repro.isa import assemble
from repro.machine import (
    Machine,
    MachineError,
    PairTargetController,
    ScheduleController,
)
from repro.tracing import trace_run

from tests.helpers import RACY_ASM, retired_at_deactivation


def _witness(program):
    """The first reported race of *program* and its witness schedule."""
    bundle = trace_run(program, period=1, seed=0)
    pipeline = OfflinePipeline(program)
    result = pipeline.analyze(bundle)
    events, _replay = pipeline.events_for(bundle)
    plain = [item[1] if isinstance(item, tuple) else item
             for item in events]
    report = result.races[0]
    schedule = WitnessPlanner(plain, max_nodes=20_000,
                              tail=None).schedule_for(report)
    return report, schedule


def _counted_run(machine):
    calls = []
    step = machine._step

    def wrapped(thread):
        calls.append(thread.tid)
        step(thread)

    machine._step = wrapped
    return machine.run(), calls


class TestStepHook:
    def test_free_run_calls_step_once_per_instruction(self):
        program = assemble(RACY_ASM)
        machine = Machine(program, seed=0)
        result, calls = _counted_run(machine)
        assert len(calls) == result.instructions
        for tid, retired in result.per_thread_retired.items():
            assert calls.count(tid) == retired

    def test_schedule_controller_path_calls_step_per_instruction(self):
        program = assemble(RACY_ASM)
        _, schedule = _witness(program)
        controller = ScheduleController(schedule.steps)
        machine = Machine(program, seed=0, controller=controller)
        result, calls = _counted_run(machine)
        assert controller.fired
        assert len(calls) == result.instructions

    def test_pair_target_path_calls_step_per_instruction(self):
        program = assemble(RACY_ASM)
        report, _ = _witness(program)
        first, second = report.pair
        controller = PairTargetController(first, second, report.address)
        machine = Machine(program, seed=0, controller=controller)
        result, calls = _counted_run(machine)
        assert len(calls) == result.instructions


#: One controller per way of deactivating, each built from the first
#: race of ``RACY_ASM`` and its witness schedule.
DEACTIVATIONS = {
    "schedule fires": lambda report, schedule: ScheduleController(
        schedule.steps),
    "schedule diverges": lambda report, schedule: ScheduleController(
        [replace(step, detail=9999) for step in schedule.steps],
        step_budget=200),
    "schedule out of budget": lambda report, schedule: ScheduleController(
        schedule.steps, step_budget=1),
    "pair fires": lambda report, schedule: PairTargetController(
        *report.pair, report.address),
    "pair out of budget": lambda report, schedule: PairTargetController(
        *report.pair, report.address, step_budget=1),
}


class TestControlledRunEndsAtVerdict:
    """A controlled run retires no instruction after its controller
    deactivates, however it deactivates."""

    @pytest.mark.parametrize("how", sorted(DEACTIVATIONS))
    def test_no_instruction_after_deactivation(self, how):
        program = assemble(RACY_ASM)
        report, schedule = _witness(program)
        controller = DEACTIVATIONS[how](report, schedule)
        machine = Machine(program, seed=0, controller=controller)
        retired_at = retired_at_deactivation(machine)
        result = machine.run()
        assert not controller.active
        assert retired_at == [result.instructions]
        assert controller.fired == how.endswith("fires")
        free = Machine(program, seed=0).run()
        assert result.instructions < free.instructions


class TestErrorPaths:
    def test_running_off_the_end(self):
        program = assemble("main:\n    mov $1, %rax\n")
        with pytest.raises(MachineError,
                           match="thread 0 fetched out-of-range ip 1$"):
            Machine(program).run()

    def test_indirect_jump_out_of_range(self):
        program = assemble("main:\n    mov $99, %rax\n    jmp %rax\n")
        with pytest.raises(MachineError,
                           match="thread 0 fetched out-of-range ip 99$"):
            Machine(program).run()

    def test_indirect_jump_to_negative_address(self):
        program = assemble("main:\n    mov $-1, %rax\n    jmp %rax\n")
        with pytest.raises(MachineError, match=(
                f"thread 0 fetched out-of-range ip {2**64 - 1}$")):
            Machine(program).run()

    def test_return_out_of_range(self):
        program = assemble(
            "main:\n    spawn w, %rbx\n    join %rbx\n    halt\n"
            "w:\n    push $1000\n    ret\n")
        with pytest.raises(MachineError,
                           match="thread 1 fetched out-of-range ip 1000$"):
            Machine(program).run()

    def test_write_to_immediate(self):
        program = assemble("main:\n    mov %rax, $5\n    halt\n")
        with pytest.raises(MachineError,
                           match=r"cannot write to operand \$5$"):
            Machine(program).run()


class TestBudget:
    SOURCE = (
        "main:\n    spawn w, %rbx\n    mov $5, %rcx\nloop:\n"
        "    dec %rcx\n    cmp $0, %rcx\n    jne loop\n"
        "    join %rbx\n    halt\nw:\n    nop\n    ret\n"
    )

    def test_exact_budget_completes_and_one_less_raises(self):
        program = assemble(self.SOURCE)
        needed = Machine(program, seed=2).run().instructions
        result = Machine(program, seed=2, max_instructions=needed).run()
        assert result.instructions == needed
        with pytest.raises(
                MachineError,
                match=rf"instruction budget exceeded \({needed - 1}\)$"):
            Machine(program, seed=2, max_instructions=needed - 1).run()


class TestFreedByReferenceCounting:
    """A finished machine must not sit in a reference cycle: perfbench
    pauses the cyclic collector during a pass, so a cyclic machine (say,
    one whose decoded handlers captured its own bound methods) would
    hold every trace's memory until the pass ends."""

    def test_traced_and_controlled_machines_die_without_gc(self):
        program = assemble(RACY_ASM)
        _, schedule = _witness(program)
        gc.collect()
        gc.disable()
        try:
            traced = Machine(program, seed=0)
            bundle = trace_run(program, period=3, seed=0, machine=traced,
                               record_ground_truth=True)
            controlled = Machine(
                program, seed=0,
                controller=ScheduleController(schedule.steps))
            controlled.run()
            refs = [weakref.ref(traced), weakref.ref(controlled)]
            del traced, controlled, bundle
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
