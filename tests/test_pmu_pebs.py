"""Unit tests for the PEBS sampling engine and driver accounting."""

import pytest

from repro.isa import assemble
from repro.machine import Machine
from repro.pmu import (
    DS_SEGMENT_BYTES,
    PEBSConfig,
    PEBSEngine,
    PRORACE_DRIVER,
    RAW_PEBS_RECORD_BYTES,
    VANILLA_DRIVER,
)


def _sample(program_src, period, driver=PRORACE_DRIVER, seed=0, **cfg):
    program = assemble(program_src)
    machine = Machine(program, seed=seed)
    pebs = PEBSEngine(PEBSConfig(period=period, **cfg), driver=driver,
                      seed=seed + 1)
    machine.attach(pebs)
    result = machine.run()
    return program, pebs, result


LOOP = """
.global g 0
main:
    mov $50, %rcx
loop:
    mov g(%rip), %rax
    add $1, %rax
    mov %rax, g(%rip)
    dec %rcx
    cmp $0, %rcx
    jne loop
    halt
"""


class TestSampling:
    def test_period_one_samples_every_access(self):
        _, pebs, result = _sample(LOOP, period=1)
        assert pebs.accounting.samples_taken == result.memory_ops

    def test_sample_rate_roughly_one_over_period(self):
        _, pebs, result = _sample(LOOP, period=5)
        expected = result.memory_ops // 5
        assert abs(pebs.accounting.samples_taken - expected) <= 2

    def test_period_larger_than_run_yields_few_samples(self):
        _, pebs, _ = _sample(LOOP, period=10_000,
                             driver=VANILLA_DRIVER)
        assert len(pebs.samples) == 0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PEBSConfig(period=0)

    def test_sample_fields(self):
        program, pebs, _ = _sample(LOOP, period=3)
        for sample in pebs.samples:
            ins = program[sample.ip]
            assert ins.is_memory_access()
            assert sample.is_store == ins.is_store()
            assert set(sample.registers) >= {"rax", "rsp", "rip"}

    def test_snapshot_is_pre_execution_state(self):
        """A sampled load's snapshot must hold the *old* destination value
        (the paper's Figure 5 backward propagation needs this)."""
        program, pebs, _ = _sample(LOOP, period=1)
        load_ip = next(
            i for i, ins in enumerate(program.instructions) if ins.is_load()
        )
        loads = [s for s in pebs.samples if s.ip == load_ip]
        assert loads
        for sample in loads:
            assert sample.registers["rip"] == sample.ip

    def test_loads_only_config(self):
        _, loads_only, _ = _sample(LOOP, period=1, monitor_stores=False)
        _, both, _ = _sample(LOOP, period=1)
        assert 0 < loads_only.accounting.samples_taken < \
            both.accounting.samples_taken
        assert all(not s.is_store for s in loads_only.samples)


class TestRandomizedFirstPeriod:
    def test_prorace_driver_randomizes_start(self):
        """§4.1.2: sampling starts at a random offset per run."""
        first_ips = set()
        for seed in range(8):
            _, pebs, _ = _sample(LOOP, period=7, seed=seed)
            if pebs.samples:
                first_ips.add(pebs.samples[0].ip)
        assert len(first_ips) > 1

    def test_vanilla_driver_fixed_start(self):
        firsts = set()
        for seed in range(6):
            _, pebs, _ = _sample(LOOP, period=7, driver=VANILLA_DRIVER,
                                 seed=seed)
            firsts.add((pebs.samples[0].ip, pebs.samples[0].tsc)
                       if pebs.samples else None)
        # The schedule is single-threaded here, so a fixed initial counter
        # always fires at the same access.
        assert len(firsts) == 1


class TestDriverAccounting:
    def test_segment_capacity(self):
        assert PRORACE_DRIVER.records_per_segment == \
            DS_SEGMENT_BYTES // RAW_PEBS_RECORD_BYTES

    def test_trace_bytes_match_record_sizes(self):
        _, pebs, _ = _sample(LOOP, period=3)
        acc = pebs.accounting
        assert acc.trace_bytes == \
            acc.samples_written * PRORACE_DRIVER.record_bytes

    def test_vanilla_records_are_larger(self):
        assert VANILLA_DRIVER.record_bytes > PRORACE_DRIVER.record_bytes

    def test_samples_conserved(self):
        _, pebs, _ = _sample(LOOP, period=2)
        acc = pebs.accounting
        assert acc.samples_taken == acc.samples_written + acc.samples_dropped

    def test_final_drain_not_throttled(self):
        """The exit-time drain always persists its records (no arrival
        pressure), even when mid-run buffers were dropped."""
        _, pebs, _ = _sample(LOOP, period=50)
        acc = pebs.accounting
        assert acc.samples_dropped == 0
        assert acc.samples_written == acc.samples_taken

    def test_throttle_drops_under_pressure(self):
        """At very small periods interrupts outpace the handler and the
        kernel drops buffers (§7.3's period-10 size inversion)."""
        big_loop = LOOP.replace("$50", "$30000")
        _, pebs, _ = _sample(big_loop, period=1, driver=VANILLA_DRIVER)
        assert pebs.accounting.samples_dropped > 0

    def test_prorace_handler_cheaper_than_vanilla(self):
        _, vanilla, _ = _sample(LOOP, period=2, driver=VANILLA_DRIVER)
        _, prorace, _ = _sample(LOOP, period=2, driver=PRORACE_DRIVER)
        assert prorace.accounting.handler_cycles < \
            vanilla.accounting.handler_cycles
