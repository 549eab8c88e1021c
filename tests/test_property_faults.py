"""Fault-transparency properties: no seeded degradation of a trace
bundle may crash the offline pipeline or manufacture a race.

The analogue of the cache-transparency property in
test_property_detection: fault injection is allowed to *shrink* the
verdict set (lost data costs detection power) but never to grow it, and
the analysis must always run to completion and account for what it
skipped."""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.analysis.sweeps import detection_sweep
from repro.faults import FaultPlan, WorkerFaultPlan
from repro.isa import assemble
from repro.supervise import SupervisorConfig
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, GeneratorConfig, WorkloadScale, \
    generate_racy_program

from tests.helpers import CLEAN_COUNTER_ASM

CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)

_CLEAN_PROGRAM = assemble(CLEAN_COUNTER_ASM, "clean-counter")
_CLEAN_BUNDLE = trace_run(_CLEAN_PROGRAM, period=5, seed=7)

intensity = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False)

plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=10_000),
    sample_drop=intensity,
    pt_gap=intensity,
    log_truncation=intensity,
    tsc_jitter=intensity,
)


@given(plan=plans)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_degraded_race_free_run_stays_race_free(plan):
    """analyze() completes and reports nothing on a race-free workload,
    whatever the fault plan."""
    degraded, defects = plan.apply(_CLEAN_BUNDLE)
    result = OfflinePipeline(_CLEAN_PROGRAM).analyze(degraded)
    assert result.races == []
    assert result.racy_addresses == frozenset()
    assert result.degradation.gaps_crossed == defects.pt_gaps


@given(seed=st.integers(min_value=0, max_value=10_000), plan=plans)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_degradation_never_invents_races(seed, plan):
    """On a random racy program, the degraded verdict set is a subset
    of the pristine one — information loss cannot create evidence."""
    program, _ = generate_racy_program(seed, CONFIG)
    bundle = trace_run(program, period=5, seed=seed)
    pristine = OfflinePipeline(program).analyze(bundle)
    degraded, _ = plan.apply(bundle)
    result = OfflinePipeline(program).analyze(degraded)
    assert result.racy_addresses <= pristine.racy_addresses


@given(plan=plans)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_fault_application_is_deterministic(plan):
    first, first_defects = plan.apply(_CLEAN_BUNDLE)
    second, second_defects = plan.apply(_CLEAN_BUNDLE)
    assert first_defects == second_defects
    assert first.samples == second.samples
    assert first.sync_records == second.sync_records


# ---------------------------------------------------------------------------
# Supervised-runtime transparency (worker faults, not trace faults)
# ---------------------------------------------------------------------------

_SWEEP_BUGS = {"aget-bug2": RACE_BUGS["aget-bug2"]}
_SWEEP_SCALE = WorkloadScale(iterations=8)
_SWEEP_PERIODS = (100,)
_SWEEP_RUNS = 2

# One serial, fault-free baseline shared by every Hypothesis example.
_SWEEP_BASELINE = detection_sweep(
    _SWEEP_BUGS, _SWEEP_SCALE, periods=_SWEEP_PERIODS, runs=_SWEEP_RUNS,
    jobs=1,
).to_dict()

worker_plans = st.builds(
    WorkerFaultPlan,
    seed=st.integers(min_value=0, max_value=10_000),
    kill=st.floats(min_value=0.0, max_value=0.8,
                   allow_nan=False, allow_infinity=False),
    fail=st.floats(min_value=0.0, max_value=0.2,
                   allow_nan=False, allow_infinity=False),
)


@given(plan=worker_plans)
@settings(max_examples=5, deadline=None, derandomize=True)
def test_supervised_sweep_transparent_to_worker_faults(plan):
    """Whatever workers a seeded fault plan kills or fails, a supervised
    sweep with retries — interrupted and resumed from its checkpoint —
    produces the deterministic payload of the serial no-fault run,
    bit-identical.  (max_faulty_attempts=1, the default, guarantees the
    retries converge.)"""
    config = SupervisorConfig(retries=3, backoff_base=0.0, seed=plan.seed)
    with tempfile.TemporaryDirectory() as checkpoint:
        first = detection_sweep(
            _SWEEP_BUGS, _SWEEP_SCALE, periods=_SWEEP_PERIODS,
            runs=_SWEEP_RUNS, jobs=2,
            supervisor=config, fault_plan=plan, checkpoint_dir=checkpoint,
        )
        resumed = detection_sweep(
            _SWEEP_BUGS, _SWEEP_SCALE, periods=_SWEEP_PERIODS,
            runs=_SWEEP_RUNS, jobs=2,
            supervisor=config, checkpoint_dir=checkpoint, resume=True,
        )
    for result in (first, resumed):
        payload = result.to_dict()
        assert payload["cells"] == _SWEEP_BASELINE["cells"]
        assert payload["totals"] == _SWEEP_BASELINE["totals"]
    assert resumed.ledger.resumed == len(_SWEEP_PERIODS) * _SWEEP_RUNS
    # Every perturbed attempt is visible in the ledger, none fatal.
    faulted = sum(
        1 for index in range(len(_SWEEP_PERIODS) * _SWEEP_RUNS)
        if plan.action(index, 1) is not None
    )
    assert first.ledger.retries == faulted
