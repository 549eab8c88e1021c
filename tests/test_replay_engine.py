"""Replay engine tests: soundness against ground truth, mode ordering."""

import pytest

from repro.isa import Op, assemble
from repro.replay import PROV_SAMPLED, ReplayEngine
from repro.tracing import trace_run


def observable(ins):
    """Accesses the machine reports (CALL/RET stack slots excluded)."""
    return ins.is_memory_access() and ins.op not in (Op.CALL, Op.RET)


def check_soundness(program, bundle, mode):
    """Every reconstructed access must equal the machine-issued one at
    the same path position — reconstruction may be incomplete, never
    wrong."""
    engine = ReplayEngine(program, mode=mode)
    result = engine.replay_bundle(bundle)
    gt_per_thread = bundle.ground_truth.per_thread()
    recovered_total = 0
    for tid, accesses in result.per_thread.items():
        truth = gt_per_thread.get(tid, [])
        path = result.paths[tid]
        mem_steps = [
            j for j, ip in enumerate(path.steps) if observable(program[ip])
        ]
        assert len(mem_steps) == len(truth)
        by_step = dict(zip(mem_steps, truth))
        for access in accesses:
            actual = by_step[access.step_index]
            assert (actual.ip, actual.address, actual.is_store) == \
                (access.ip, access.address, access.is_store)
            recovered_total += 1
    return result, recovered_total


class TestSoundness:
    @pytest.mark.parametrize("mode", ["full", "forward", "basicblock"])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_clean_program(self, clean_program, mode, seed):
        bundle = trace_run(clean_program, period=4, seed=seed,
                           record_ground_truth=True)
        check_soundness(clean_program, bundle, mode)

    @pytest.mark.parametrize("mode", ["full", "forward", "basicblock"])
    def test_racy_program(self, racy_program, mode):
        bundle = trace_run(racy_program, period=3, seed=5,
                           record_ground_truth=True)
        check_soundness(racy_program, bundle, mode)


class TestModeOrdering:
    def test_full_mode_dominates_ablations(self, racy_program):
        bundle = trace_run(racy_program, period=6, seed=1,
                           record_ground_truth=True)
        counts = {}
        for mode in ("full", "forward", "basicblock"):
            _, counts[mode] = check_soundness(racy_program, bundle, mode)
        assert counts["full"] >= counts["forward"]
        assert counts["full"] >= counts["basicblock"]

    def test_recovery_ratio_exceeds_one_with_samples(self, racy_program):
        bundle = trace_run(racy_program, period=6, seed=1)
        result = ReplayEngine(racy_program, mode="full").replay_bundle(bundle)
        assert result.stats.recovery_ratio > 1.0


class TestSampledAccesses:
    def test_samples_present_with_sampled_provenance(self, racy_program):
        bundle = trace_run(racy_program, period=4, seed=8)
        result = ReplayEngine(racy_program).replay_bundle(bundle)
        sampled = [
            a for accesses in result.per_thread.values() for a in accesses
            if a.provenance == PROV_SAMPLED
        ]
        assert len(sampled) == result.stats.sampled
        assert result.stats.sampled > 0

    def test_sampled_addresses_come_from_records(self, racy_program):
        bundle = trace_run(racy_program, period=4, seed=8)
        result = ReplayEngine(racy_program).replay_bundle(bundle)
        by_key = {
            (s.tid, s.ip, s.tsc): s.address for s in bundle.samples
        }
        for tid, aligned in result.aligned.items():
            for item in aligned:
                key = (tid, item.sample.ip, item.sample.tsc)
                assert by_key[key] == item.sample.address


class TestNoSampleThreads:
    def test_thread_without_samples_still_gets_pc_relative(self):
        source = """
.global flag 0
main:
    spawn quiet, %rbx
    mov $20, %rcx
mloop:
    mov flag(%rip), %rax
    dec %rcx
    cmp $0, %rcx
    jne mloop
    join %rbx
    halt
quiet:
    mov flag(%rip), %rdx
    halt
"""
        program = assemble(source)
        # Period so large the child thread gets no samples.
        bundle = trace_run(program, period=10_000, seed=0)
        result = ReplayEngine(program).replay_bundle(bundle)
        child_accesses = result.per_thread.get(1, [])
        quiet_ip = program.resolve("quiet")
        assert any(a.ip == quiet_ip for a in child_accesses)


class TestInvalidMode:
    def test_rejected(self, racy_program):
        with pytest.raises(ValueError):
            ReplayEngine(racy_program, mode="bogus")
