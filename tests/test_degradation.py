"""Graceful degradation end-to-end: every consumer survives lossy
inputs, verdicts stay conservative, and the DegradationReport reconciles
with what was injected."""

import pytest

from repro.analysis import OfflinePipeline, render_report, to_json
from repro.faults import BUILTIN_PLAN_NAMES, FaultPlan, builtin_plans, \
    corrupt_trace_file
from repro.ptdecode import GAP_OPEN, decode_all_tolerant, decode_thread
from repro.tracing import read_trace, trace_run, write_trace


@pytest.fixture(params=BUILTIN_PLAN_NAMES)
def plan_name(request):
    return request.param


class TestAcceptanceCriteria:
    """ISSUE.md: under every built-in FaultPlan at 10% intensity,
    analyze() completes without raising, reports zero false positives
    on race-free workloads, and its DegradationReport reconciles
    exactly with the injected fault counts."""

    def test_race_free_stays_race_free(self, clean_program, clean_bundle,
                                       plan_name):
        plan = builtin_plans(0.10, seed=11)[plan_name]
        degraded, defects = plan.apply(clean_bundle)
        result = OfflinePipeline(clean_program).analyze(degraded)
        assert result.races == []
        assert result.racy_addresses == frozenset()

    def test_report_reconciles_with_injection(self, clean_program,
                                              clean_bundle, plan_name):
        plan = builtin_plans(0.10, seed=11)[plan_name]
        degraded, defects = plan.apply(clean_bundle)
        report = OfflinePipeline(clean_program).analyze(degraded).degradation
        # Declared side echoes the injection record exactly.
        assert report.samples_dropped == defects.samples_dropped
        assert report.drop_bursts == defects.drop_bursts
        assert report.pt_packets_lost == defects.pt_packets_lost
        assert report.sync_records_lost == defects.sync_records_lost
        assert report.alloc_records_lost == defects.alloc_records_lost
        assert report.tsc_perturbed == defects.tsc_perturbed
        assert report.log_truncated_at_tsc == defects.log_truncated_at_tsc
        # Observed side: the decoder crossed exactly the injected gaps.
        assert report.gaps_crossed == defects.pt_gaps
        assert report.degraded == defects.degraded

    def test_racy_workload_still_detects(self, racy_program, racy_bundle,
                                         plan_name):
        """Degradation shrinks detection power; at 10% intensity this
        racy run keeps finding its race."""
        plan = builtin_plans(0.10, seed=11)[plan_name]
        degraded, _ = plan.apply(racy_bundle)
        result = OfflinePipeline(racy_program).analyze(degraded)
        assert result.races

    def test_render_and_json_survive(self, clean_program, clean_bundle,
                                     plan_name):
        import json

        plan = builtin_plans(0.10, seed=11)[plan_name]
        degraded, _ = plan.apply(clean_bundle)
        result = OfflinePipeline(clean_program).analyze(degraded)
        text = render_report(clean_program, result)
        if result.degradation.degraded:
            assert "degraded inputs:" in text
        payload = json.loads(to_json(clean_program, result))
        assert payload["degradation"]["degraded"] \
            == result.degradation.degraded


class TestConservativeVerdicts:
    def test_precision_under_faults(self, racy_program):
        """Races reported on a degraded trace are a subset of the
        pristine analysis's: lost data never fabricates races."""
        bundle = trace_run(racy_program, period=4, seed=9)
        pristine = OfflinePipeline(racy_program).analyze(bundle)
        for name, plan in builtin_plans(0.2, seed=5).items():
            degraded, _ = plan.apply(bundle)
            result = OfflinePipeline(racy_program).analyze(degraded)
            assert result.racy_addresses <= pristine.racy_addresses, name

    def test_truncation_suppresses_tail_accesses(self, clean_program,
                                                 clean_bundle):
        plan = FaultPlan(seed=3, log_truncation=0.5)
        degraded, defects = plan.apply(clean_bundle)
        assert defects.sync_records_lost > 0
        result = OfflinePipeline(clean_program).analyze(degraded)
        assert result.races == []
        assert result.degradation.suppressed_accesses > 0

    def test_pristine_run_reports_no_degradation(self, clean_program,
                                                 clean_bundle):
        result = OfflinePipeline(clean_program).analyze(clean_bundle)
        assert not result.degradation.degraded


class TestDecoderResync:
    def _gapped(self, bundle, seed=1, pt_gap=0.25):
        degraded, defects = FaultPlan(seed=seed, pt_gap=pt_gap).apply(bundle)
        assert defects.pt_gaps > 0
        return degraded, defects

    def test_decode_crosses_gaps(self, racy_program, racy_bundle):
        degraded, defects = self._gapped(racy_bundle)
        paths, failures = decode_all_tolerant(
            racy_program, degraded.pt_traces,
            samples={tid: degraded.samples_of_thread(tid)
                     for tid in degraded.pt_traces},
        )
        assert not failures
        assert sum(p.ovf_gaps for p in paths.values()) == defects.pt_gaps
        gapped = [p for p in paths.values() if p.gap_ranges]
        assert gapped

    def test_locate_refuses_gap_interior(self, racy_program, racy_bundle):
        degraded, _ = self._gapped(racy_bundle)
        for tid, trace in degraded.pt_traces.items():
            path = decode_thread(
                racy_program, trace,
                samples=degraded.samples_of_thread(tid),
            )
            for gap_lo, gap_hi in path.gap_ranges:
                if gap_hi is GAP_OPEN:
                    probe = gap_lo + 1
                else:
                    probe = (gap_lo + int(gap_hi)) // 2
                if gap_lo <= probe < gap_hi:
                    assert path.locate(0, probe) is None

    def test_segment_starts_follow_resyncs(self, racy_program,
                                           racy_bundle):
        degraded, _ = self._gapped(racy_bundle)
        for tid, trace in degraded.pt_traces.items():
            path = decode_thread(
                racy_program, trace,
                samples=degraded.samples_of_thread(tid),
            )
            for start in path.segment_starts:
                assert 0 < start <= len(path.steps)

    def test_gap_without_samples_truncates(self, racy_program,
                                           racy_bundle):
        """No post-gap sample to resync at → conservative truncation,
        not an exception."""
        degraded, _ = self._gapped(racy_bundle)
        for tid, trace in degraded.pt_traces.items():
            path = decode_thread(racy_program, trace, samples=[])
            if path.ovf_gaps:
                assert not path.complete


class TestThreadIsolation:
    def test_decode_failure_skips_thread_only(self, racy_program,
                                              racy_bundle):
        """A PT stream decoding to garbage costs that thread, not the
        analysis."""
        import dataclasses

        from repro.pmu.pt import PacketKind

        from tests.helpers import rows, with_rows

        broken = dict(racy_bundle.pt_traces)
        victim = sorted(broken)[0]
        trace = broken[victim]
        packets = rows(trace)
        # An indirect-jump packet targeting an out-of-range ip.
        bad = (PacketKind.TIP, packets[0][1] + 1, 10_000)
        broken[victim] = with_rows(trace, [bad] + packets)
        bundle = dataclasses.replace(racy_bundle, pt_traces=broken)
        result = OfflinePipeline(racy_program).analyze(bundle)
        assert victim in result.degradation.threads_skipped

    def test_no_spurious_skips(self, racy_program, racy_bundle):
        result = OfflinePipeline(racy_program).analyze(racy_bundle)
        assert result.degradation.threads_skipped == ()


class TestSalvageAnalysis:
    def test_corrupted_sync_section_analyzed_conservatively(
            self, clean_program, clean_bundle, tmp_path):
        path = tmp_path / "t.prtr"
        write_trace(clean_bundle, path)
        corrupt_trace_file(path, seed=2, section_index=2)  # sync
        loaded = read_trace(path, program=clean_program,
                            allow_partial=True)
        assert loaded.defects.corrupted_sections == ("sync#2",)
        assert loaded.defects.log_truncated_at_tsc == -1
        result = OfflinePipeline(clean_program).analyze(loaded)
        assert result.races == []
        assert result.degradation.corrupted_sections == ("sync#2",)
