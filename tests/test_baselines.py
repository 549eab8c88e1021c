"""Baseline detector tests: RaceZ, LiteRace, Pacer, DataCollider."""

import pytest

from repro.baselines import (
    DataCollider,
    MAX_WATCHPOINTS,
    Pacer,
    RaceZ,
    run_datacollider,
    run_literace,
    run_pacer,
)
from repro.isa import assemble
from repro.pmu import VANILLA_DRIVER
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import CLEAN_COUNTER_ASM, RACY_ASM

SCALE = WorkloadScale(iterations=8)


class TestRaceZ:
    def test_uses_vanilla_driver_and_basicblock_mode(self):
        racez = RaceZ()
        assert racez.driver is VANILLA_DRIVER
        assert racez.mode == "basicblock"

    def test_no_false_positives_on_clean_program(self):
        program = assemble(CLEAN_COUNTER_ASM)
        result = RaceZ().detect(program, period=2, seed=1)
        assert not result.races

    def test_detects_race_when_sampling_is_dense(self):
        program = assemble(RACY_ASM)
        hits = sum(
            bool(RaceZ().detect(program, period=2, seed=s).races)
            for s in range(5)
        )
        assert hits >= 3

    def test_weaker_than_prorace_at_sparse_sampling(self):
        from repro.analysis import OfflinePipeline
        from repro.tracing import trace_run

        bug = RACE_BUGS["cherokee-0.9.2"]
        program = bug.build(SCALE)
        prorace = racez = 0
        for seed in range(4):
            bundle = trace_run(program, period=200, seed=seed)
            full = OfflinePipeline(program, mode="full").analyze(bundle)
            bb = OfflinePipeline(program, mode="basicblock").analyze(bundle)
            prorace += bug.detected(program, full)
            racez += bug.detected(program, bb)
        assert prorace > racez


class TestLiteRace:
    def test_detects_races(self):
        program = assemble(RACY_ASM)
        literace = run_literace(program, seed=0)
        assert program.symbols["racy"] in literace.racy_addresses()

    def test_clean_program_silent(self):
        program = assemble(CLEAN_COUNTER_ASM)
        literace = run_literace(program, seed=0)
        assert not literace.racy_addresses()

    def test_cold_function_rate_decays(self):
        from repro.baselines.literace import _FunctionSampler

        sampler = _FunctionSampler()
        assert sampler.should_sample(0.0)  # first execution: 100%
        assert sampler.rate == 0.5
        for _ in range(20):
            sampler.should_sample(0.0)
        assert sampler.rate == sampler.floor

    def test_overhead_grows_with_logging(self):
        program = assemble(RACY_ASM)
        literace = run_literace(program, seed=0)
        assert literace.overhead_cycles() > 0
        assert literace.logged_accesses > 0


class TestPacer:
    def test_full_rate_equals_full_detection(self):
        program = assemble(RACY_ASM)
        pacer = run_pacer(program, sampling_rate=1.0, seed=0)
        assert program.symbols["racy"] in pacer.racy_addresses()

    def test_zero_rate_detects_nothing(self):
        program = assemble(RACY_ASM)
        pacer = run_pacer(program, sampling_rate=0.0, seed=0)
        assert not pacer.racy_addresses()

    def test_detection_roughly_proportional_to_rate(self):
        """§2: Pacer's coverage is approximately proportional to the
        sampling rate."""
        program_src = RACY_ASM
        hits = {rate: 0 for rate in (0.05, 0.9)}
        for rate in hits:
            for seed in range(8):
                pacer = run_pacer(assemble(program_src),
                                  sampling_rate=rate, seed=seed)
                hits[rate] += bool(pacer.racy_addresses())
        assert hits[0.9] > hits[0.05]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Pacer(assemble(RACY_ASM), sampling_rate=1.5)

    def test_clean_program_silent(self):
        pacer = run_pacer(assemble(CLEAN_COUNTER_ASM), sampling_rate=1.0)
        assert not pacer.racy_addresses()


class TestDataCollider:
    def test_detects_overlapping_race(self):
        program = assemble(RACY_ASM)
        hits = 0
        for seed in range(8):
            collider = run_datacollider(
                program, period=5, delay_cycles=500, seed=seed
            )
            hits += bool(collider.racy_addresses())
        assert hits >= 1

    def test_read_read_not_reported(self):
        source = """
.global shared 7
main:
    spawn w, %rbx
    mov $20, %rcx
l:
    mov shared(%rip), %rax
    dec %rcx
    cmp $0, %rcx
    jne l
    join %rbx
    halt
w:
    mov $20, %rcx
wl:
    mov shared(%rip), %rdx
    dec %rcx
    cmp $0, %rcx
    jne wl
    halt
"""
        program = assemble(source)
        for seed in range(5):
            collider = run_datacollider(program, period=3,
                                        delay_cycles=1000, seed=seed)
            assert not collider.collisions

    def test_watchpoint_limit_respected(self):
        program = assemble(RACY_ASM)
        collider = DataCollider(program, period=1, delay_cycles=10**9)
        from repro.machine import Machine

        machine = Machine(program, seed=0)
        machine.attach(collider)
        machine.run()
        # With never-expiring watchpoints and period 1, the four debug
        # registers saturate.
        assert collider.delays <= collider.samples
        assert len(collider._watchpoints) <= MAX_WATCHPOINTS

    def test_overhead_proportional_to_delays(self):
        program = assemble(RACY_ASM)
        collider = run_datacollider(program, period=5, delay_cycles=100,
                                    seed=0)
        assert collider.overhead_cycles() == collider.delays * 100
