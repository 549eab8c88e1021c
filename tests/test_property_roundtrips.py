"""Property-based round-trip tests: program→text→program and
bundle→file→bundle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from repro.machine import Machine
from repro.tracing import read_trace, trace_run, write_trace
from repro.workloads import GeneratorConfig, generate_program

from tests.helpers import rows

CONFIG = GeneratorConfig(threads=2, body_length=30, loop_iterations=2)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_to_asm_roundtrip_preserves_execution(seed):
    """assemble(p.to_asm()) must execute identically to p."""
    program = generate_program(seed, CONFIG)
    clone = assemble(program.to_asm(), program.name)
    assert len(clone) == len(program)
    original = Machine(program, seed=seed).run()
    replica = Machine(clone, seed=seed).run()
    assert original.instructions == replica.instructions
    assert original.tsc == replica.tsc
    assert original.memory_ops == replica.memory_ops
    assert original.sync_ops == replica.sync_ops


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_to_asm_roundtrip_preserves_data_layout(seed):
    program = generate_program(seed, CONFIG)
    clone = assemble(program.to_asm(), program.name)
    assert clone.symbols == program.symbols
    assert clone.data == program.data
    assert clone.labels == program.labels


@given(seed=st.integers(min_value=0, max_value=10_000),
       period=st.sampled_from([2, 7, 31]))
@settings(max_examples=15, deadline=None)
def test_trace_file_roundtrip(seed, period, tmp_path_factory):
    """write_trace → read_trace preserves every record."""
    program = generate_program(seed, CONFIG)
    bundle = trace_run(program, period=period, seed=seed)
    path = tmp_path_factory.mktemp("traces") / f"t{seed}.prtr"
    write_trace(bundle, path)
    loaded = read_trace(path, program=program)
    assert loaded.samples == bundle.samples
    assert loaded.sync_records == bundle.sync_records
    assert loaded.alloc_records == bundle.alloc_records
    for tid, trace in bundle.pt_traces.items():
        assert rows(loaded.pt_traces[tid]) == rows(trace)
