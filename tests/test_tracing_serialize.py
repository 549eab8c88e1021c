"""Trace-file serialization tests: round-trip, corruption, analysis
equivalence."""

import struct

import pytest

from repro.analysis import OfflinePipeline
from repro.faults import clock_plans
from repro.isa import assemble
from repro.tracing import (
    TraceFormatError,
    read_trace,
    trace_run,
    trace_to_bytes,
    write_trace,
)
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import rows


@pytest.fixture
def traced(racy_program):
    return racy_program, trace_run(racy_program, period=4, seed=9)


class TestRoundTrip:
    def test_samples_preserved(self, traced, tmp_path):
        program, bundle = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        assert loaded.samples == bundle.samples

    def test_pt_streams_preserved(self, traced, tmp_path):
        program, bundle = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        assert set(loaded.pt_traces) == set(bundle.pt_traces)
        for tid, trace in bundle.pt_traces.items():
            other = loaded.pt_traces[tid]
            assert rows(other) == rows(trace)
            assert other.start_ip == trace.start_ip
            assert other.start_tsc == trace.start_tsc
            assert other.end_tsc == trace.end_tsc

    def test_sync_and_alloc_preserved(self, tmp_path):
        source = """
.global g 0
main:
    malloc $16, %rax
    mov $1, %rdx
    mov %rdx, (%rax)
    free %rax
    spawn w, %rbx
    join %rbx
    halt
w:
    mov g(%rip), %rax
    halt
"""
        program = assemble(source)
        bundle = trace_run(program, period=2, seed=1)
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        assert loaded.sync_records == bundle.sync_records
        assert loaded.alloc_records == bundle.alloc_records

    def test_run_metadata_preserved(self, traced, tmp_path):
        program, bundle = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        assert loaded.run.tsc == bundle.run.tsc
        assert loaded.run.instructions == bundle.run.instructions
        assert loaded.run.threads == bundle.run.threads

    def test_analysis_equivalent(self, traced, tmp_path):
        """Analyzing a deserialized trace gives identical verdicts."""
        program, bundle = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        direct = OfflinePipeline(program).analyze(bundle)
        from_file = OfflinePipeline(program).analyze(loaded)
        assert direct.racy_addresses == from_file.racy_addresses
        assert len(direct.races) == len(from_file.races)

    def test_ground_truth_never_serialized(self, racy_program, tmp_path):
        bundle = trace_run(racy_program, period=4, seed=9,
                           record_ground_truth=True)
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=racy_program)
        assert loaded.ground_truth is None


class TestVersions:
    """Both container versions round-trip; v2 adds per-section CRCs."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_round_trip(self, traced, tmp_path, version):
        program, bundle = traced
        path = tmp_path / f"v{version}.prtr"
        write_trace(bundle, path, version=version)
        loaded = read_trace(path, program=program)
        assert loaded.samples == bundle.samples
        assert loaded.sync_records == bundle.sync_records
        assert loaded.alloc_records == bundle.alloc_records
        for tid, trace in bundle.pt_traces.items():
            assert rows(loaded.pt_traces[tid]) == rows(trace)
        assert loaded.run.tsc == bundle.run.tsc
        assert loaded.defects is None

    def test_default_is_v2(self, traced, tmp_path):
        import struct as struct_mod

        program, bundle = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        _, version, _, _ = struct_mod.unpack_from(
            "<4sHHI", path.read_bytes(), 0)
        assert version == 2

    def test_v2_is_larger_by_section_crcs(self, traced, tmp_path):
        program, bundle = traced
        v1 = tmp_path / "v1.prtr"
        v2 = tmp_path / "v2.prtr"
        size1 = write_trace(bundle, v1, version=1)
        size2 = write_trace(bundle, v2, version=2)
        assert size2 > size1

    def test_unsupported_write_version(self, traced, tmp_path):
        _, bundle = traced
        with pytest.raises(ValueError, match="version"):
            write_trace(bundle, tmp_path / "t.prtr", version=5)

    def test_negative_timestamp_raises_value_error(self):
        """Clock skew pushes this bundle's timestamps below zero, which
        the unsigned timestamp fields cannot hold: the writer raises its
        documented ValueError naming the section, not a struct.error."""
        program = RACE_BUGS["pfscan"].build(
            WorkloadScale(iterations=8, threads=4))
        bundle = trace_run(program, period=100, seed=1)
        skewed, _ = clock_plans(0.2, seed=1)["clock-skew"].apply(bundle)
        assert min(r.tsc for r in skewed.sync_records) < 0
        with pytest.raises(ValueError, match="pebs section"):
            trace_to_bytes(skewed)

    def test_v1_has_no_salvage(self, clean_program, tmp_path):
        """allow_partial needs per-section CRCs; a corrupt v1 file is
        rejected either way."""
        from repro.faults import corrupt_trace_file

        bundle = trace_run(clean_program, period=5, seed=1)
        path = tmp_path / "t.prtr"
        write_trace(bundle, path, version=1)
        corrupt_trace_file(path, seed=1, section_index=1)
        with pytest.raises(TraceFormatError, match="checksum"):
            read_trace(path, allow_partial=True)

    def test_v2_salvage_round_trips_damage_free_sections(
            self, traced, tmp_path):
        from repro.faults import corrupt_trace_file

        program, bundle = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        corrupt_trace_file(path, seed=1, section_index=0)  # meta
        loaded = read_trace(path, program=program, allow_partial=True)
        assert loaded.defects.corrupted_sections == ("meta#0",)
        assert loaded.samples == bundle.samples
        assert loaded.sync_records == bundle.sync_records
        assert loaded.run.tsc == 0  # zeroed stand-in header


class TestCorruption:
    def _write(self, program, tmp_path):
        bundle = trace_run(program, period=5, seed=1)
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        return path

    def test_bitflip_detected(self, clean_program, tmp_path):
        path = self._write(clean_program, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="checksum"):
            read_trace(path)

    def test_truncation_detected(self, clean_program, tmp_path):
        path = self._write(clean_program, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.prtr"
        blob = b"NOPE" + b"\x00" * 64
        blob += struct.pack("<I", __import__("zlib").crc32(blob))
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(path)

    def test_bad_version(self, clean_program, tmp_path):
        import zlib

        path = self._write(clean_program, tmp_path)
        blob = bytearray(path.read_bytes())[:-4]
        blob[4] = 99  # version field
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.prtr"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            read_trace(path)


class TestDriverTag:
    def test_driver_identity_roundtrips(self, clean_program, tmp_path):
        from repro.pmu import VANILLA_DRIVER

        bundle = trace_run(clean_program, period=5, seed=1,
                           driver=VANILLA_DRIVER)
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path)
        assert loaded.pebs_accounting.driver.name == "vanilla"


@pytest.fixture
def governed(racy_program):
    from repro.faults import LoadBurstPlan
    from repro.pmu.governor import GovernorConfig

    bundle = trace_run(racy_program, period=2, seed=9,
                       governor=GovernorConfig(overhead_budget=0.02,
                                               decision_ticks=20),
                       load_bursts=LoadBurstPlan(seed=9, multiplier=8))
    assert bundle.governor is not None
    return racy_program, bundle


class TestGovernedContainer:
    """v3: the period-epoch section of governed bundles."""

    def test_governed_bundle_defaults_to_v3(self, governed, tmp_path):
        _, bundle = governed
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        _, version, _, _ = struct.unpack_from("<4sHHI",
                                              path.read_bytes(), 0)
        assert version == 3

    def test_epochs_and_report_round_trip(self, governed, tmp_path):
        program, bundle = governed
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        assert loaded.period_epochs == bundle.period_epochs
        assert loaded.samples == bundle.samples
        report, original = loaded.governor, bundle.governor
        assert report.overhead_budget == original.overhead_budget
        assert report.base_period == original.base_period
        assert report.widenings == original.widenings
        assert report.tier_transitions == original.tier_transitions
        assert report.final_period == original.final_period
        assert report.final_tier == original.final_tier
        assert report.final_overhead == pytest.approx(
            original.final_overhead)
        assert report.epochs == original.epochs

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_write_versions_drop_only_the_epochs(
            self, governed, tmp_path, version):
        program, bundle = governed
        path = tmp_path / f"v{version}.prtr"
        write_trace(bundle, path, version=version)
        loaded = read_trace(path, program=program)
        assert loaded.governor is None
        assert loaded.period_epochs == []
        assert loaded.samples == bundle.samples
        assert loaded.sync_records == bundle.sync_records

    def test_corrupt_epoch_section_salvages_the_data(
            self, governed, tmp_path):
        """Damage to the epoch section loses the period history, never
        the trace data it annotates."""
        from repro.faults import corrupt_trace_file

        program, bundle = governed
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        # The epoch section is written last: meta, pebs, sync, alloc,
        # one pt stream per thread, epochs.
        epoch_index = 4 + len(bundle.pt_traces)
        corrupt_trace_file(path, seed=3, section_index=epoch_index)
        with pytest.raises(TraceFormatError):
            read_trace(path, program=program)
        loaded = read_trace(path, program=program, allow_partial=True)
        assert any(name.startswith("epochs")
                   for name in loaded.defects.corrupted_sections)
        assert loaded.governor is None
        assert loaded.period_epochs == []
        assert loaded.samples == bundle.samples
        assert loaded.sync_records == bundle.sync_records

    def test_governed_v3_analysis_equivalent_after_round_trip(
            self, governed, tmp_path):
        program, bundle = governed
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        loaded = read_trace(path, program=program)
        direct = OfflinePipeline(program).analyze(bundle)
        reread = OfflinePipeline(program).analyze(loaded)
        assert {r.pair for r in direct.races} == \
            {r.pair for r in reread.races}
        assert direct.degradation.governor_active
        assert reread.degradation.governor_active
        assert (reread.degradation.governor_epochs
                == direct.degradation.governor_epochs)
