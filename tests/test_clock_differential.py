"""Clock reconciliation must be an invisible flag on healthy traces.

Differential evidence for the uncertainty-aware merge keys
(:func:`repro.detector.events.uncertain_merge_tsc`):

* on clean traces, ``reconcile_clock=True`` snaps to the identity
  model and both executors — columnar-batched and address-sharded —
  return verdicts bit-identical to the unreconciled run;
* on clock-damaged traces the two executors and the scalar reference
  (:func:`tests.helpers.scalar_findings`, the final stream fed one
  event at a time) still agree with *each other* bit-for-bit: the
  corrected keys reach every backend the same way, so reconciliation
  changes what is detected, never which executor detects it.
"""

import pytest

from repro.analysis import OfflinePipeline
from repro.faults import clock_plans
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import scalar_findings, thread_sharded_findings

SCALE = WorkloadScale(iterations=8, threads=4)
CORPUS = ("pfscan", "mysql-791", "apache-25520")


def _bundle(name, seed, plan=None):
    program = RACE_BUGS[name].build(SCALE)
    bundle = trace_run(program, period=100, seed=seed)
    if plan is not None:
        bundle, _ = plan.apply(bundle)
    return program, bundle


def _assert_same_findings(fl, fr):
    assert fl.races == fr.races
    assert fl.sorted_addresses() == fr.sorted_addresses()
    assert fl.accesses_processed == fr.accesses_processed
    assert fl.sync_processed == fr.sync_processed


def _assert_identical(left, right):
    _assert_same_findings(left.findings["fasttrack"],
                          right.findings["fasttrack"])
    assert left.racy_addresses == right.racy_addresses
    assert [r.pair for r in left.races] == [r.pair for r in right.races]
    assert left.regeneration_rounds == right.regeneration_rounds


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("seed", [0, 3])
def test_reconcile_flag_invisible_on_clean_traces(name, seed):
    """reconcile_clock=True on an undamaged trace: identity model,
    verdicts bit-identical to the flag being off — in every executor."""
    program, bundle = _bundle(name, seed)
    plain = OfflinePipeline(program).analyze(bundle)
    for kwargs in ({}, {"detect_shards": 4}):
        pipeline = OfflinePipeline(program, reconcile_clock=True,
                                   **kwargs)
        reconciled = pipeline.analyze(bundle)
        assert reconciled.clock is not None
        assert not reconciled.clock.active
        _assert_identical(plain, reconciled)
        _assert_same_findings(plain.findings["fasttrack"],
                              thread_sharded_findings(pipeline, bundle, 4))


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("plan_name",
                         ["clock-skew", "clock-regress", "clock-combined"])
def test_executors_agree_under_clock_damage(name, plan_name):
    """Scalar, batched and sharded reconciled runs agree bit-for-bit on
    clock-damaged traces: uncertainty-clamped keys are executor-blind."""
    plan = clock_plans(0.4, seed=7)[plan_name]
    program, bundle = _bundle(name, 7, plan)
    pipeline = OfflinePipeline(program, reconcile_clock=True)
    batched = pipeline.analyze(bundle)
    scalar = scalar_findings(pipeline, bundle)["fasttrack"]
    sharded = OfflinePipeline(program, reconcile_clock=True,
                              detect_shards=4).analyze(bundle)
    fb = batched.findings["fasttrack"]
    _assert_same_findings(scalar, fb)
    _assert_same_findings(thread_sharded_findings(pipeline, bundle, 4), fb)
    _assert_identical(batched, sharded)


def test_reconciled_never_exceeds_clean_findings():
    """Reconciliation under damage may lose detection but must not
    fabricate: reconciled racy addresses are a subset of the clean
    run's on every clock plan shape."""
    program, clean = _bundle("apache-25520", 3)
    truth = OfflinePipeline(program).analyze(clean).racy_addresses
    for plan in clock_plans(0.5, seed=3).values():
        damaged, _ = plan.apply(clean)
        result = OfflinePipeline(program,
                                 reconcile_clock=True).analyze(damaged)
        assert result.racy_addresses <= truth
