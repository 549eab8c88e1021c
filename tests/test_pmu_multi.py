"""Multiple PMU consumers and configuration interplay."""

from repro.isa import assemble
from repro.machine import Machine
from repro.pmu import (
    PEBSConfig,
    PEBSEngine,
    PRORACE_DRIVER,
    PTPacketizer,
    VANILLA_DRIVER,
)
from repro.tracing import GroundTruthRecorder

from tests.helpers import CLEAN_COUNTER_ASM


class TestMultipleObservers:
    def test_two_pebs_engines_sample_independently(self):
        """Two engines at different periods coexist without interfering
        (the run loop keeps each engine's counters apart)."""
        program = assemble(CLEAN_COUNTER_ASM)
        machine = Machine(program, seed=1)
        fine = PEBSEngine(PEBSConfig(period=2), seed=2)
        coarse = PEBSEngine(PEBSConfig(period=10), seed=3)
        machine.attach(fine)
        machine.attach(coarse)
        result = machine.run()
        assert fine.accounting.samples_taken > \
            coarse.accounting.samples_taken
        assert fine.accounting.samples_taken == result.memory_ops // 2

    def test_pebs_and_ground_truth_agree(self):
        """Every PEBS sample must match the ground-truth access at the
        same TSC — the hardware never fabricates."""
        program = assemble(CLEAN_COUNTER_ASM)
        machine = Machine(program, seed=4)
        pebs = PEBSEngine(PEBSConfig(period=3), seed=5)
        truth = GroundTruthRecorder()
        machine.attach(pebs)
        machine.attach(truth)
        machine.run()
        by_tsc = {(a.tid, a.tsc): a for a in truth.accesses}
        assert pebs.samples
        for sample in pebs.samples:
            actual = by_tsc[(sample.tid, sample.tsc)]
            assert actual.ip == sample.ip
            assert actual.address == sample.address
            assert actual.is_store == sample.is_store

    def test_observer_order_does_not_matter(self):
        program_a = assemble(CLEAN_COUNTER_ASM)
        program_b = assemble(CLEAN_COUNTER_ASM)
        first = Machine(program_a, seed=6)
        pebs_a = PEBSEngine(PEBSConfig(period=4), seed=7)
        pt_a = PTPacketizer()
        first.attach(pebs_a)
        first.attach(pt_a)
        first.run()
        second = Machine(program_b, seed=6)
        pebs_b = PEBSEngine(PEBSConfig(period=4), seed=7)
        pt_b = PTPacketizer()
        second.attach(pt_b)  # reversed order
        second.attach(pebs_b)
        second.run()
        assert [s.tsc for s in pebs_a.samples] == \
            [s.tsc for s in pebs_b.samples]
        assert pt_a.packets_emitted == pt_b.packets_emitted


class TestSegmentSizing:
    def test_explicit_segment_override(self):
        program = assemble(CLEAN_COUNTER_ASM)
        machine = Machine(program, seed=1)
        pebs = PEBSEngine(PEBSConfig(period=1), seed=2, segment_records=4)
        machine.attach(pebs)
        machine.run()
        assert pebs.segment_records == 4
        # With forced drains exempt, every sample still survives or is
        # accounted as dropped.
        acc = pebs.accounting
        assert acc.samples_taken == acc.samples_written + \
            acc.samples_dropped

    def test_default_segment_scales_down_hardware_size(self):
        pebs = PEBSEngine(PEBSConfig(period=10))
        assert pebs.segment_records < PRORACE_DRIVER.records_per_segment
        assert pebs.segment_records >= 4


class TestDriverBehaviourFlags:
    def test_pollution_cap_differs(self):
        assert VANILLA_DRIVER.pollution_cap > PRORACE_DRIVER.pollution_cap

    def test_fixed_overhead_differs(self):
        assert VANILLA_DRIVER.fixed_overhead_fraction > \
            PRORACE_DRIVER.fixed_overhead_fraction

    def test_exit_drain_not_in_tracing_cost(self):
        program = assemble(CLEAN_COUNTER_ASM)
        machine = Machine(program, seed=1)
        pebs = PEBSEngine(PEBSConfig(period=50), seed=2)
        machine.attach(pebs)
        machine.run()
        acc = pebs.accounting
        assert acc.exit_drain_cycles > 0
        assert acc.handler_cycles == 0  # everything drained at exit
