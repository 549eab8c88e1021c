"""Clock reconciliation: adversarial time (docs/robustness.md).

Covers the whole `repro.clock` contract:

* fault injection is pure and fully declared in ``TraceDefects``;
* estimation triggers on either evidence channel (sync-log inversions,
  per-stream regressions) and snaps to the exact identity on clean
  traces;
* monotonicity repair restores the two invariants ordering rests on;
* the uncertainty clamp never crosses a thread's own sync window;
* the v4 container round-trips the calibration section (v1–v3 stay
  readable, a corrupt clock section salvages away);
* the acceptance duel — under injected skew/drift/regressions the
  reconciled pipeline reports zero false races while naive-TSC
  ordering demonstrably fabricates one.
"""

from __future__ import annotations

import pytest

from repro.analysis import OfflinePipeline
from repro.analysis.report import render_report, to_json
from repro.clock import (
    ClockModel,
    apply_clock_correction,
    estimate_clock_model,
    inject_clock_faults,
    repair_streams,
)
from repro.clock.repair import RepairStats, _repair_sync
from repro.detector.events import uncertain_merge_tsc
from repro.faults import CLOCK_PLAN_NAMES, FaultPlan, clock_plans
from repro.pmu.records import SyncRecord
from repro.tracing import (
    read_trace,
    read_trace_bytes,
    trace_run,
    trace_to_bytes,
    write_trace,
)
from repro.workloads import RACE_BUGS, SMALL

BUG = "apache-21287"


@pytest.fixture(scope="module")
def bundle():
    program = RACE_BUGS[BUG].build(SMALL)
    return program, trace_run(program, period=100, seed=3)


@pytest.fixture(scope="module")
def dense_bundle():
    """A workload whose sync log is dense and multi-threaded, so pure
    skew/drift (no regressions) leaves cross-core anchor evidence."""
    from repro.workloads import ALL_WORKLOADS

    program = ALL_WORKLOADS["bodytrack"].build(SMALL)
    return program, trace_run(program, period=100, seed=3)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------

def test_injection_is_pure_and_declared(bundle):
    _program, clean = bundle
    before = trace_to_bytes(clean)
    disturbed, stats = inject_clock_faults(
        clean, skew=1.0, drift=0.5, step=0.5, regress=0.3, seed=3)
    assert trace_to_bytes(clean) == before  # input untouched
    assert disturbed is not clean
    assert stats.skewed_cores or stats.drifted_cores
    assert stats.regressions > 0


def test_fault_plan_records_clock_provenance(bundle):
    _program, clean = bundle
    degraded, defects = FaultPlan(seed=3, clock_skew=1.0,
                                  clock_regress=0.3).apply(clean)
    assert defects.clock_disturbed
    assert defects.clock_skewed_cores > 0
    assert defects.clock_regressions > 0
    assert degraded is not clean


def test_clock_plans_catalogued():
    plans = clock_plans(0.5, seed=1)
    assert set(plans) == set(CLOCK_PLAN_NAMES)
    for plan in plans.values():
        assert plan.clock_intensity > 0


# ----------------------------------------------------------------------
# Estimation: two evidence channels, snap-to-identity
# ----------------------------------------------------------------------

def test_clean_trace_estimates_exact_identity(bundle):
    _program, clean = bundle
    model = estimate_clock_model(clean)
    assert model.is_identity
    corrected, _model, stats = apply_clock_correction(clean)
    assert corrected is clean  # the byte-identity guarantee
    assert stats.total_moved == 0


def test_skew_evidence_produces_fits(dense_bundle):
    _program, clean = dense_bundle
    disturbed, _ = inject_clock_faults(clean, skew=1.0, drift=0.5,
                                       step=0.0, regress=0.0, seed=3)
    model = estimate_clock_model(disturbed)
    assert not model.is_identity
    assert model.fits  # per-core affine fits from sync anchors
    assert model.max_half_width > 0


def test_regression_evidence_without_sync_inversions(bundle):
    """A sparse sync log can stay sorted while per-stream regressions
    scream; the second evidence channel must still engage."""
    _program, clean = bundle
    disturbed, stats = inject_clock_faults(clean, skew=0.0, drift=0.0,
                                           step=0.0, regress=0.3, seed=3)
    assert stats.regressions > 0
    model = estimate_clock_model(disturbed)
    assert not model.is_identity
    assert model.inversions > 0
    assert model.default_half_width > 0


def test_correction_repairs_monotonicity(dense_bundle):
    _program, clean = dense_bundle
    disturbed, _ = inject_clock_faults(clean, skew=1.0, drift=0.5,
                                       step=0.5, regress=0.3, seed=3)
    corrected, model, _stats = apply_clock_correction(disturbed)
    assert not model.is_identity
    records = sorted(corrected.sync_records, key=lambda r: r.seq)
    assert all(a.tsc <= b.tsc for a, b in zip(records, records[1:]))
    for tid in {r.tid for r in records}:
        own = [r.tsc for r in records if r.tid == tid]
        assert all(a < b for a, b in zip(own, own[1:]))
    for sample_tid in {s.tid for s in corrected.samples}:
        tscs = [s.tsc for s in corrected.samples if s.tid == sample_tid]
        assert all(a <= b for a, b in zip(tscs, tscs[1:]))


# ----------------------------------------------------------------------
# Sync repair and the uncertainty clamp
# ----------------------------------------------------------------------

def _sync(tsc, seq, tid):
    return SyncRecord(tsc=tsc, seq=seq, tid=tid, ip=0, kind="lock",
                      target=0x10)


def test_repair_sync_global_and_per_thread():
    records = [_sync(10, 0, 1), _sync(4, 1, 2), _sync(10, 2, 1),
               _sync(10, 3, 2)]
    stats = RepairStats()
    repaired, changed = _repair_sync(records, stats)
    assert changed
    tscs = [r.tsc for r in repaired]
    assert all(a <= b for a, b in zip(tscs, tscs[1:]))
    for tid in (1, 2):
        own = [r.tsc for r in repaired if r.tid == tid]
        assert all(a < b for a, b in zip(own, own[1:]))
    # Idempotent: a repaired stream comes back as-is.
    again, changed_again = _repair_sync(repaired, RepairStats())
    assert not changed_again and again is repaired


def test_uncertain_merge_clamps_to_own_sync_window():
    # Free access: merges at the late edge of its interval.
    assert uncertain_merge_tsc(10.0, 3.0, None, None) == 13.0
    # Upper clamp: never past the thread's own next sync.
    assert uncertain_merge_tsc(10.0, 3.0, None, 11.0) == 11.0
    # Two-sided: even a (regressed) estimate BELOW the next sync is
    # clamped down to it when uncertainty would overshoot — program
    # order beats interpolated time.
    assert uncertain_merge_tsc(12.0, 5.0, None, 14.0) == 14.0
    # Lower clamp: strictly past the previous own sync.
    assert uncertain_merge_tsc(1.0, 0.0, 5.0, 9.0) == 6.0
    # Degenerate-window safety: the key stays inside (prev, next].
    assert uncertain_merge_tsc(1.0, 0.0, 5.0, 6.0) == 6.0


# ----------------------------------------------------------------------
# v4 container
# ----------------------------------------------------------------------

def test_version_matrix_round_trip(bundle, tmp_path):
    program, clean = bundle
    for version in (1, 2, 3):
        path = tmp_path / f"v{version}.prtr"
        write_trace(clean, path, version=version)
        loaded = read_trace(path, program=program)
        assert len(loaded.samples) == len(clean.samples)
        assert loaded.clock is None


def test_v4_round_trips_clock_calibration(dense_bundle, tmp_path):
    program, clean = dense_bundle
    disturbed, _ = inject_clock_faults(clean, skew=1.0, drift=0.5,
                                       step=0.0, regress=0.0, seed=3)
    corrected, model, _stats = apply_clock_correction(disturbed)
    path = tmp_path / "v4.prtr"
    write_trace(corrected, path)
    loaded = read_trace(path, program=program)
    assert loaded.clock is not None
    assert loaded.clock.inversions == model.inversions
    assert loaded.clock.default_half_width == model.default_half_width
    assert [f.to_dict() for f in loaded.clock.fits] \
        == [f.to_dict() for f in model.fits]


def test_clean_bundle_still_writes_v3_or_older(bundle, tmp_path):
    """An unreconciled bundle must stay byte-identical to pre-clock
    builds — the v4 section only appears when a model was attached."""
    _program, clean = bundle
    assert clean.clock is None
    blob = trace_to_bytes(clean)
    assert blob[4] < 4  # container version byte


def test_corrupt_clock_section_salvages(dense_bundle, tmp_path):
    program, clean = dense_bundle
    disturbed, _ = inject_clock_faults(clean, skew=1.0, drift=0.0,
                                       step=0.0, regress=0.0, seed=3)
    corrected, _model, _stats = apply_clock_correction(disturbed)
    blob = bytearray(trace_to_bytes(corrected))
    # The clock section is written last: its final payload byte sits
    # just before the 4-byte file trailer.  Flipping it breaks exactly
    # that section's CRC (and the trailer), nothing else.
    blob[-5] ^= 0xFF
    from repro.tracing import TraceFormatError

    with pytest.raises(TraceFormatError):
        read_trace_bytes(bytes(blob), program=program)
    salvaged = read_trace_bytes(bytes(blob), program=program,
                                allow_partial=True)
    assert salvaged.clock is None  # calibration lost, trace usable
    assert len(salvaged.samples) == len(corrected.samples)
    assert any(entry.startswith("clock#")
               for entry in salvaged.defects.corrupted_sections)


# ----------------------------------------------------------------------
# Pipeline byte-identity and the acceptance duel
# ----------------------------------------------------------------------

def test_zero_fault_reports_byte_identical(bundle):
    program, clean = bundle
    plain = OfflinePipeline(program).analyze(clean)
    reconciled = OfflinePipeline(program,
                                 reconcile_clock=True).analyze(clean)
    assert reconciled.clock is not None
    assert not reconciled.clock.active
    # Verdicts identical; the text report differs by exactly the one
    # "timestamps trusted as-is" line the clock section contributes.
    assert [r.address for r in plain.races] \
        == [r.address for r in reconciled.races]
    plain_lines = render_report(program, plain).splitlines()
    recon_lines = [line for line in
                   render_report(program, reconciled).splitlines()
                   if not line.startswith("clock reconciliation:")]
    assert plain_lines == recon_lines
    import json

    plain_json = json.loads(to_json(program, plain))
    recon_json = json.loads(to_json(program, reconciled))
    recon_json.pop("clock")  # the only permitted delta
    for payload in (plain_json, recon_json):  # wall-clock noise
        payload.pop("timings_seconds", None)
        payload.pop("replay_speed", None)
    assert plain_json == recon_json


@pytest.mark.parametrize("plan_kwargs", [
    {"clock_regress": 0.3},
    {"clock_skew": 0.8, "clock_drift": 0.5, "clock_regress": 0.3},
], ids=["regress", "combo"])
def test_acceptance_reconciled_beats_naive(bundle, plan_kwargs):
    """The ISSUE acceptance criterion: under injected clock faults the
    naive-TSC pipeline fabricates a race the program cannot have, while
    the reconciled pipeline reports zero false races and still detects
    the true one."""
    program, clean = bundle
    truth = {r.address for r in OfflinePipeline(program)
             .analyze(clean).races}
    assert truth
    degraded, _ = FaultPlan(seed=3, **plan_kwargs).apply(clean)
    naive = OfflinePipeline(program).analyze(degraded)
    reconciled = OfflinePipeline(program,
                                 reconcile_clock=True).analyze(degraded)
    naive_addresses = {r.address for r in naive.races}
    recon_addresses = {r.address for r in reconciled.races}
    assert naive_addresses - truth, "naive ordering must fabricate"
    assert not (recon_addresses - truth), "reconciled must not"
    assert recon_addresses & truth, "and must keep the true race"
    clock = reconciled.clock
    assert clock is not None and clock.active
    assert clock.reconciles is True  # faults were declared
    deg = reconciled.degradation
    assert deg.clock_declared


def test_undeclared_clock_damage_flagged(dense_bundle):
    """Clock damage with no declared fault plan must read as
    non-reconciling — silent damage never passes for clean."""
    program, clean = dense_bundle
    disturbed, _ = inject_clock_faults(clean, skew=1.0, drift=0.5,
                                       step=0.0, regress=0.0, seed=3)
    result = OfflinePipeline(program,
                             reconcile_clock=True).analyze(disturbed)
    assert result.clock is not None
    assert result.clock.active
    assert result.clock.reconciles is False
    assert "DECLARED" in render_report(program, result)


def test_repair_streams_rejects_bad_order(bundle):
    _program, clean = bundle
    with pytest.raises(ValueError):
        repair_streams(clean, order=("sync", "sync", "allocs", "packets"))


def test_identity_model_constructors():
    model = ClockModel.identity()
    assert model.is_identity
    assert model.correct(41, core=2) == 41
    assert model.half_width_of(9) == 0.0
