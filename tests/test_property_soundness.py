"""Property-based reproduction-soundness tests over random programs.

The central invariant of the whole offline stage (DESIGN.md §5): every
reconstructed memory access must equal — in instruction, address, and
kind — the access the machine actually issued at that path position.
Reconstruction may be *incomplete*; it must never be *wrong*.  Checked
over randomly generated multithreaded programs, all replay modes, and
multiple schedules/sampling phases, along with decode fidelity and the
recovery-monotonicity ordering.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Op
from repro.machine import Machine
from repro.pmu import PTPacketizer
from repro.ptdecode import align_samples, decode_all
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import GeneratorConfig, generate_program

CONFIG = GeneratorConfig(threads=2, body_length=40, loop_iterations=2)


def observable(ins):
    return ins.is_memory_access() and ins.op not in (Op.CALL, Op.RET)


def soundness_oracle(program, bundle, mode):
    """Assert every reconstructed access matches ground truth; return the
    number of recovered accesses."""
    result = ReplayEngine(program, mode=mode).replay_bundle(bundle)
    gt = bundle.ground_truth.per_thread()
    recovered = 0
    for tid, accesses in result.per_thread.items():
        truth = gt.get(tid, [])
        path = result.paths[tid]
        mem_steps = [
            j for j, ip in enumerate(path.steps)
            if observable(program[ip])
        ]
        assert len(mem_steps) == len(truth)
        by_step = dict(zip(mem_steps, truth))
        for access in accesses:
            actual = by_step[access.step_index]
            assert actual.ip == access.ip
            assert actual.address == access.address, (
                f"{mode}: wrong address at step {access.step_index}: "
                f"{access} vs truth {actual}"
            )
            assert actual.is_store == access.is_store
            recovered += 1
    return recovered


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_reconstruction_soundness_full_mode(seed):
    program = generate_program(seed, CONFIG)
    bundle = trace_run(program, period=5, seed=seed,
                       record_ground_truth=True)
    soundness_oracle(program, bundle, "full")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_reconstruction_soundness_all_modes_and_monotonicity(seed):
    program = generate_program(seed, CONFIG)
    bundle = trace_run(program, period=7, seed=seed * 3 + 1,
                       record_ground_truth=True)
    counts = {
        mode: soundness_oracle(program, bundle, mode)
        for mode in ("full", "forward", "basicblock")
    }
    # full dominates both ablations; forward and basicblock are
    # incomparable in general (basicblock includes in-block *backward*
    # propagation that the pure-forward ablation lacks).
    assert counts["full"] >= counts["forward"]
    assert counts["full"] >= counts["basicblock"]


@given(seed=st.integers(min_value=0, max_value=10_000),
       period=st.sampled_from([1, 3, 11, 50]))
@settings(max_examples=15, deadline=None)
def test_soundness_across_periods(seed, period):
    program = generate_program(seed, CONFIG)
    bundle = trace_run(program, period=period, seed=seed,
                       record_ground_truth=True)
    soundness_oracle(program, bundle, "full")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_decode_matches_executed_path(seed):
    """PT decode fidelity over random programs."""
    program = generate_program(seed, CONFIG)
    machine = Machine(program, seed=seed)
    executed = {}
    original_step = machine._step

    def wrapped(thread):
        executed.setdefault(thread.tid, []).append(thread.ip)
        original_step(thread)

    machine._step = wrapped
    pt = PTPacketizer()
    machine.attach(pt)
    machine.run()
    paths = decode_all(program, pt.traces)
    for tid, path in paths.items():
        assert path.steps == executed[tid]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_sample_alignment_unique_and_correct(seed):
    program = generate_program(seed, CONFIG)
    bundle = trace_run(program, period=4, seed=seed)
    paths = decode_all(program, bundle.pt_traces)
    total = 0
    for tid, path in paths.items():
        aligned = align_samples(path, bundle.samples_of_thread(tid))
        assert path.ambiguous == 0
        for item in aligned:
            assert path.steps[item.step_index] == item.sample.ip
        total += len(aligned)
    assert total == len(bundle.samples)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_machine_determinism(seed):
    program_a = generate_program(seed, CONFIG)
    program_b = generate_program(seed, CONFIG)
    result_a = Machine(program_a, seed=seed).run()
    result_b = Machine(program_b, seed=seed).run()
    assert result_a.instructions == result_b.instructions
    assert result_a.tsc == result_b.tsc
    assert result_a.memory_ops == result_b.memory_ops
