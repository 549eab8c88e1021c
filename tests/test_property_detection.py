"""End-to-end detection properties over random racy programs.

At period 1 the pipeline sees every retired access (the extended trace
*is* the full trace), so the injected race must be reported in every
run and on every schedule — a completeness property for the whole
decode → reconstruct → detect stack.  Sparser sampling may only shrink
the verdict set (monotonicity) and never invent races the full-trace
analysis did not see (precision).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.tracing import trace_run
from repro.workloads import GeneratorConfig, generate_racy_program
from tests.helpers import analyze_from_scratch

CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)


def _pairs(result):
    return {r.pair for r in result.races}


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_injected_race_always_found_at_period_one(seed):
    program, (read_ip, write_ip) = generate_racy_program(seed, CONFIG)
    bundle = trace_run(program, period=1, seed=seed)
    result = OfflinePipeline(program).analyze(bundle)
    assert tuple(sorted((read_ip, write_ip))) in _pairs(result)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_sparser_sampling_never_invents_races(seed):
    """Every race the sparse analysis reports must also be found by the
    full-trace (period 1) analysis of the *same* run — sampling loses
    information, it cannot create it."""
    program, _ = generate_racy_program(seed, CONFIG)
    # Same machine schedule for both: period only changes the PMU.
    full = OfflinePipeline(program).analyze(
        trace_run(program, period=1, seed=seed)
    )
    sparse = OfflinePipeline(program).analyze(
        trace_run(program, period=17, seed=seed)
    )
    assert sparse.racy_addresses <= full.racy_addresses


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_incremental_context_equals_from_scratch(seed):
    """The cached/incremental analysis context (decode once, selective
    per-thread re-replay across §5.1 rounds, streaming merge) must be an
    *invisible* optimization: identical races, addresses, rounds and
    replay statistics to the from-scratch per-round pipeline."""
    program, _ = generate_racy_program(seed, CONFIG)
    bundle = trace_run(program, period=5, seed=seed)
    cached = OfflinePipeline(program).analyze(bundle)
    scratch = analyze_from_scratch(program, bundle)
    assert _pairs(cached) == _pairs(scratch)
    assert cached.racy_addresses == scratch.racy_addresses
    assert cached.regeneration_rounds == scratch.regeneration_rounds
    assert cached.replay.stats == scratch.replay.stats
    assert cached.replay.per_thread == scratch.replay.per_thread


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_injected_race_detected_even_with_no_samples(seed):
    """The injected accesses are PC-relative: the PT path alone recovers
    them, so even an absurdly sparse period finds the race (the Table 2
    pc-relative phenomenon, generalized)."""
    program, (read_ip, write_ip) = generate_racy_program(seed, CONFIG)
    bundle = trace_run(program, period=1_000_000, seed=seed)
    result = OfflinePipeline(program).analyze(bundle)
    assert tuple(sorted((read_ip, write_ip))) in _pairs(result)
