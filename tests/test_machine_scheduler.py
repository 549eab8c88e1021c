"""Scheduler behaviour: determinism, diversity, TSC properties."""

from repro.isa import assemble
from repro.machine import Machine, MachineObserver

from tests.helpers import CLEAN_COUNTER_ASM


class _OrderRecorder(MachineObserver):
    def __init__(self):
        self.order = []

    def on_memory_access(self, event):
        self.order.append((event.tid, event.tsc, event.ip))


def _record(program, seed):
    machine = Machine(program, seed=seed)
    recorder = _OrderRecorder()
    machine.attach(recorder)
    machine.run()
    return recorder.order


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        program = assemble(CLEAN_COUNTER_ASM)
        assert _record(program, 5) == _record(assemble(CLEAN_COUNTER_ASM), 5)

    def test_different_seeds_differ(self):
        """Seeds must produce interleaving diversity (needed for the
        Table 2 detection-probability methodology)."""
        program_a = assemble(CLEAN_COUNTER_ASM)
        program_b = assemble(CLEAN_COUNTER_ASM)
        orders = {tuple(_record(p, s)) for p, s in
                  ((program_a, 1), (program_b, 2))}
        assert len(orders) == 2


class TestTsc:
    def test_tsc_strictly_increases_per_event(self):
        program = assemble(CLEAN_COUNTER_ASM)
        order = _record(program, 3)
        tscs = [t for _, t, _ in order]
        assert tscs == sorted(tscs)
        assert len(set(tscs)) == len(tscs)  # one instruction per tsc

    def test_per_thread_program_order_preserved(self):
        program = assemble(CLEAN_COUNTER_ASM)
        order = _record(program, 3)
        by_thread = {}
        for tid, tsc, _ in order:
            by_thread.setdefault(tid, []).append(tsc)
        for tscs in by_thread.values():
            assert tscs == sorted(tscs)


class TestCoreAssignment:
    def test_threads_pinned_round_robin(self):
        program = assemble(CLEAN_COUNTER_ASM)
        machine = Machine(program, num_cores=2, seed=0)
        machine.run()
        for tid, thread in machine.threads.items():
            assert thread.core == tid % 2
