"""Fault-injection subsystem tests: determinism, purity, accounting."""

import dataclasses

import pytest

from repro.faults import (
    BUILTIN_PLAN_NAMES,
    FaultPlan,
    builtin_plans,
    corrupt_trace_file,
)
from repro.pmu.pt import PacketKind
from repro.tracing import TraceFormatError, read_trace, write_trace

from tests.helpers import rows


ALL_FAULTS = FaultPlan(seed=3, sample_drop=0.3, pt_gap=0.2,
                       log_truncation=0.2, tsc_jitter=0.5)


def snapshot(bundle):
    """Everything apply() may not mutate, in comparable form."""
    return (
        list(bundle.samples),
        {tid: rows(t) for tid, t in bundle.pt_traces.items()},
        list(bundle.sync_records),
        list(bundle.alloc_records),
        bundle.pebs_accounting.trace_bytes,
        bundle.pebs_accounting.samples_dropped,
    )


class TestFaultPlan:
    def test_validates_intensities(self):
        with pytest.raises(ValueError, match="sample_drop"):
            FaultPlan(sample_drop=1.5)
        with pytest.raises(ValueError, match="pt_gap"):
            FaultPlan(pt_gap=-0.1)

    def test_intensity_is_strongest_fault(self):
        assert FaultPlan().intensity == 0.0
        assert FaultPlan(sample_drop=0.1, pt_gap=0.4).intensity == 0.4

    def test_deterministic(self, racy_bundle):
        first, first_defects = ALL_FAULTS.apply(racy_bundle)
        second, second_defects = ALL_FAULTS.apply(racy_bundle)
        assert first_defects == second_defects
        assert first.samples == second.samples
        assert first.sync_records == second.sync_records
        for tid in first.pt_traces:
            assert (rows(first.pt_traces[tid])
                    == rows(second.pt_traces[tid]))

    def test_seed_changes_outcome(self, racy_bundle):
        a, _ = ALL_FAULTS.apply(racy_bundle)
        b, _ = dataclasses.replace(ALL_FAULTS, seed=99).apply(racy_bundle)
        assert (a.samples != b.samples
                or a.sync_records != b.sync_records
                or any(rows(a.pt_traces[t]) != rows(b.pt_traces[t])
                       for t in a.pt_traces))

    def test_apply_is_pure(self, racy_bundle):
        before = snapshot(racy_bundle)
        ALL_FAULTS.apply(racy_bundle)
        assert snapshot(racy_bundle) == before

    def test_zero_plan_is_identity(self, racy_bundle):
        degraded, defects = FaultPlan(seed=5).apply(racy_bundle)
        assert not defects.degraded
        assert degraded.samples == racy_bundle.samples

    def test_defects_travel_with_bundle(self, racy_bundle):
        degraded, defects = ALL_FAULTS.apply(racy_bundle)
        assert degraded.defects is defects


class TestSampleDrops:
    def test_drop_counts_reconcile(self, racy_bundle):
        plan = FaultPlan(seed=1, sample_drop=0.5)
        degraded, defects = plan.apply(racy_bundle)
        assert defects.samples_dropped > 0
        assert (len(racy_bundle.samples) - len(degraded.samples)
                == defects.samples_dropped)

    def test_accounting_updated(self, racy_bundle):
        plan = FaultPlan(seed=1, sample_drop=0.5)
        degraded, defects = plan.apply(racy_bundle)
        dropped = (degraded.pebs_accounting.samples_dropped
                   - racy_bundle.pebs_accounting.samples_dropped)
        assert dropped == defects.samples_dropped
        assert (degraded.pebs_accounting.trace_bytes
                < racy_bundle.pebs_accounting.trace_bytes)

    def test_burst_granularity(self, racy_bundle):
        """Samples vanish in whole DS-segment bursts, never singly."""
        plan = FaultPlan(seed=2, sample_drop=1.0)
        degraded, defects = plan.apply(racy_bundle)
        segment = racy_bundle.pebs_accounting.segment_records
        assert degraded.samples == []
        assert defects.samples_dropped == len(racy_bundle.samples)
        assert defects.drop_bursts > 0
        # Every burst but possibly one trailing partial burst per core
        # is full-size, so the average cannot exceed the segment size.
        assert defects.samples_dropped <= defects.drop_bursts * segment


class TestPTGaps:
    def test_gap_replaces_span_with_ovf(self, racy_bundle):
        plan = FaultPlan(seed=1, pt_gap=0.2)
        degraded, defects = plan.apply(racy_bundle)
        assert defects.pt_gaps > 0
        for tid, trace in degraded.pt_traces.items():
            original = rows(racy_bundle.pt_traces[tid])
            ovfs = [row for row in rows(trace) if row[0] is PacketKind.OVF]
            if not ovfs:
                continue
            assert len(ovfs) == 1
            _kind, tsc, gap_end = ovfs[0]
            assert gap_end >= tsc
            # The span (>= 1 packet) collapses into the one marker.
            assert len(rows(trace)) <= len(original)

    def test_packet_loss_reconciles(self, racy_bundle):
        plan = FaultPlan(seed=1, pt_gap=0.2)
        degraded, defects = plan.apply(racy_bundle)
        lost = sum(
            len(rows(racy_bundle.pt_traces[tid])) - len(rows(t))
            for tid, t in degraded.pt_traces.items()
        )
        # Each gap removes `length` packets but adds one OVF marker.
        assert lost == defects.pt_packets_lost - defects.pt_gaps


class TestLogTruncation:
    def test_common_tail_cut(self, racy_bundle):
        plan = FaultPlan(seed=1, log_truncation=0.3)
        degraded, defects = plan.apply(racy_bundle)
        cutoff = defects.log_truncated_at_tsc
        assert cutoff is not None
        assert all(r.tsc <= cutoff for r in degraded.sync_records)
        assert all(r.tsc <= cutoff for r in degraded.alloc_records)
        lost = (len(racy_bundle.sync_records)
                - len(degraded.sync_records))
        assert lost == defects.sync_records_lost
        assert defects.sync_records_lost + defects.alloc_records_lost > 0


class TestTSCJitter:
    def test_preserves_per_thread_order(self, racy_bundle):
        plan = FaultPlan(seed=1, tsc_jitter=1.0)
        degraded, defects = plan.apply(racy_bundle)
        assert defects.tsc_perturbed > 0
        last = {}
        for sample in degraded.samples:
            assert last.get(sample.tid, -1) <= sample.tsc
            last[sample.tid] = sample.tsc

    def test_jitter_bounded(self, racy_bundle):
        from repro.faults import MAX_TSC_JITTER

        plan = FaultPlan(seed=1, tsc_jitter=1.0)
        degraded, _ = plan.apply(racy_bundle)
        for before, after in zip(racy_bundle.samples, degraded.samples):
            # Monotonic clamping can only pull a tsc up toward the
            # previous same-thread sample, itself jittered by <= MAX.
            assert abs(after.tsc - before.tsc) <= 2 * MAX_TSC_JITTER


class TestBuiltinPlans:
    def test_suite_shape(self):
        plans = builtin_plans(0.1, seed=7)
        assert set(plans) == set(BUILTIN_PLAN_NAMES)
        assert plans["pebs-overflow"].sample_drop == 0.1
        assert plans["pebs-overflow"].pt_gap == 0.0
        assert plans["combined"].intensity == 0.1
        assert all(p.seed == 7 for p in plans.values())


class TestCorruptTraceFile:
    def test_strict_read_rejects(self, racy_bundle, tmp_path):
        path = tmp_path / "t.prtr"
        write_trace(racy_bundle, path)
        corrupt_trace_file(path, seed=1)
        with pytest.raises(TraceFormatError, match="checksum"):
            read_trace(path)

    def test_salvage_drops_only_damaged_section(
            self, racy_program, racy_bundle, tmp_path):
        path = tmp_path / "t.prtr"
        write_trace(racy_bundle, path)
        index = corrupt_trace_file(path, seed=1, section_index=1)
        loaded = read_trace(path, program=racy_program,
                            allow_partial=True)
        assert loaded.defects is not None
        assert loaded.defects.corrupted_sections == (f"pebs#{index}",)
        # Everything else survives intact.
        assert loaded.sync_records == racy_bundle.sync_records
        assert set(loaded.pt_traces) == set(racy_bundle.pt_traces)
        assert loaded.samples == []
