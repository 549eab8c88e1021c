"""PT decode tests: decoded paths must equal the executed paths."""

import pytest

from repro.isa import Op, assemble
from repro.machine import Machine, MachineObserver
from repro.pmu import PTConfig, PTPacketizer
from repro.ptdecode import DecodeError, align_samples, decode_all, decode_thread
from repro.tracing import trace_run

from tests.helpers import CLEAN_COUNTER_ASM, RACY_ASM, rows, with_rows


class _StepRecorder(MachineObserver):
    """Records every executed instruction address per thread (oracle)."""

    def __init__(self, machine):
        self.machine = machine
        self.steps = {}
        machine_step = machine._step

        def wrapped(thread):
            self.steps.setdefault(thread.tid, []).append(thread.ip)
            machine_step(thread)

        machine._step = wrapped


def _decode_and_compare(source, seed=0, config=None):
    program = assemble(source)
    machine = Machine(program, seed=seed)
    recorder = _StepRecorder(machine)
    pt = PTPacketizer(config or PTConfig())
    machine.attach(pt)
    machine.run()
    paths = decode_all(program, pt.traces)
    for tid, path in paths.items():
        assert path.steps == recorder.steps[tid], f"thread {tid} mismatch"
    return program, paths


class TestDecodeFidelity:
    def test_straight_line(self):
        _decode_and_compare("main:\n    mov $1, %rax\n    nop\n    halt\n")

    def test_loop(self):
        _decode_and_compare(
            "main:\n    mov $5, %rcx\nl:\n    dec %rcx\n    cmp $0, %rcx\n"
            "    jne l\n    halt\n"
        )

    def test_calls_and_rets(self):
        _decode_and_compare(
            "main:\n    call f\n    call f\n    call g\n    halt\n"
            "f:\n    nop\n    ret\n"
            "g:\n    call f\n    ret\n"
        )

    def test_indirect_jmp(self):
        _decode_and_compare(
            "main:\n    mov $4, %rax\n    jmp %rax\n    halt\n    halt\n"
            "t:\n    nop\n    halt\n"
        )

    def test_multithreaded(self):
        _decode_and_compare(CLEAN_COUNTER_ASM, seed=11)

    def test_racy_program(self):
        _decode_and_compare(RACY_ASM, seed=3)

    def test_ret_compression_disabled(self):
        _decode_and_compare(
            "main:\n    call f\n    halt\nf:\n    ret\n",
            config=PTConfig(ret_compression=False),
        )

    def test_many_seeds(self):
        for seed in range(6):
            _decode_and_compare(CLEAN_COUNTER_ASM, seed=seed)


class TestAnchors:
    def test_anchor_tscs_are_exact_branch_times(self, clean_program):
        bundle = trace_run(clean_program, period=3, seed=5)
        paths = decode_all(clean_program, bundle.pt_traces)
        for tid, path in paths.items():
            for step_index, tsc in path.anchors[1:]:
                # Every anchored step is a branch/halt retirement.
                ins = clean_program[path.steps[step_index]]
                assert ins.is_branch() or ins.op == Op.HALT

    def test_first_anchor_at_step_zero(self, clean_bundle, clean_program):
        paths = decode_all(clean_program, clean_bundle.pt_traces)
        for path in paths.values():
            assert path.anchors[0][0] == 0


class TestAlignment:
    def test_all_samples_align_uniquely(self, racy_program):
        bundle = trace_run(racy_program, period=3, seed=9)
        paths = decode_all(racy_program, bundle.pt_traces)
        aligned_total = 0
        for tid, path in paths.items():
            aligned = align_samples(path, bundle.samples_of_thread(tid))
            for item in aligned:
                assert path.steps[item.step_index] == item.sample.ip
            assert path.ambiguous == 0
            aligned_total += len(aligned)
        assert aligned_total == len(bundle.samples)

    def test_alignment_positions_monotone_in_tsc(self, racy_program):
        bundle = trace_run(racy_program, period=4, seed=2)
        paths = decode_all(racy_program, bundle.pt_traces)
        for tid, path in paths.items():
            aligned = align_samples(path, bundle.samples_of_thread(tid))
            indices = [a.step_index for a in aligned]
            assert indices == sorted(indices)


class TestFilteredDecode:
    def test_filtered_trace_decodes_prefix_only(self):
        source = (
            "main:\n    nop\n    nop\n    mov $3, %rcx\nl:\n    dec %rcx\n"
            "    cmp $0, %rcx\n    jne l\n    halt\n"
        )
        program = assemble(source)
        config = PTConfig(filters=((0, 3),))  # branches excluded
        machine = Machine(program, seed=0)
        pt = PTPacketizer(config)
        machine.attach(pt)
        machine.run()
        path = decode_thread(program, pt.traces[0], config=config)
        assert not path.complete
        # Decode stops before the first filtered-out branch.
        assert path.steps == [0, 1, 2, 3, 4]


class TestDecodeErrors:
    def test_inconsistent_stream_raises(self):
        program = assemble("main:\n    cmp $0, %rax\n    je x\nx:\n    halt\n")
        machine = Machine(program, seed=0)
        pt = PTPacketizer()
        machine.attach(pt)
        machine.run()
        # Lose the TNT for the je.
        trace = with_rows(pt.traces[0], rows(pt.traces[0])[1:])
        with pytest.raises(DecodeError):
            decode_thread(program, trace)
