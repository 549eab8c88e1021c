"""Lazy trace-reader regressions: zero-copy payloads, pay-per-decode.

The old reader materialized a ``bytes`` copy of every section payload —
a full second copy of the file — and decoded all of them whether or not
anyone looked.  :class:`~repro.tracing.serialize.TraceReader` must hand
out :class:`memoryview` slices of the original blob and decode only
what is asked for, while :meth:`~TraceReader.bundle` stays
semantically identical to the eager path (including salvage).
"""

import pytest

from repro.faults import corrupt_trace_file
from repro.tracing import (
    TraceFormatError,
    open_trace,
    read_trace,
    read_trace_bytes,
    trace_run,
    trace_to_bytes,
    write_trace,
)
from repro.tracing.serialize import _SEC_PT, TraceReader
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import rows


@pytest.fixture(scope="module")
def traced():
    program = RACE_BUGS["pfscan"].build(
        WorkloadScale(iterations=6, threads=4))
    bundle = trace_run(program, period=50, seed=2)
    return program, bundle, trace_to_bytes(bundle)


class TestLaziness:
    def test_construction_decodes_nothing(self, traced):
        _, _, blob = traced
        reader = TraceReader(blob)
        assert reader.file_intact
        assert len(reader.sections) > 0
        assert reader.sections_decoded == 0
        assert reader.bytes_decoded == 0

    def test_payload_is_zero_copy_view(self, traced):
        """No per-section bytes copy: every payload is a memoryview
        whose backing object IS the container blob."""
        _, _, blob = traced
        reader = TraceReader(blob)
        for entry in reader.sections:
            view = reader.payload(entry)
            assert isinstance(view, memoryview)
            assert view.obj is reader.blob
            assert len(view) == entry.length
        # Handing out views costs no decode accounting.
        assert reader.bytes_decoded == 0

    def test_decode_is_memoized_and_counted_once(self, traced):
        _, _, blob = traced
        reader = TraceReader(blob)
        entry = reader.sections[0]
        first = reader.decode(entry)
        after_one = (reader.sections_decoded, reader.bytes_decoded)
        assert after_one == (1, entry.length)
        assert reader.decode(entry) is first
        assert (reader.sections_decoded, reader.bytes_decoded) == after_one

    def test_pt_tid_peeks_without_decoding(self, traced):
        _, bundle, blob = traced
        reader = TraceReader(blob)
        peeked = {
            reader.pt_tid(entry)
            for entry in reader.sections if entry.kind == _SEC_PT
        }
        assert peeked == set(bundle.pt_traces)
        assert reader.bytes_decoded == 0

    def test_verify_is_free_on_intact_files(self, traced):
        _, _, blob = traced
        reader = TraceReader(blob)
        assert all(reader.verify(entry) for entry in reader.sections)
        assert reader.bytes_decoded == 0


class TestThreadSubset:
    def test_subset_skips_foreign_pt_decode(self, traced):
        """A worker touching one thread must not pay for the others:
        foreign PT sections are neither decoded nor counted."""
        program, bundle, blob = traced
        tids = sorted(bundle.pt_traces)
        assert len(tids) >= 2
        keep = frozenset(tids[:1])
        reader = TraceReader(blob)
        partial = reader.bundle(program=program, threads=keep)
        assert set(partial.pt_traces) == set(keep)
        assert reader.bytes_decoded < reader.total_payload_bytes
        skipped_pt = sum(
            entry.length for entry in reader.sections
            if entry.kind == _SEC_PT and reader.pt_tid(entry) not in keep
        )
        assert skipped_pt > 0
        assert (reader.bytes_decoded
                == reader.total_payload_bytes - skipped_pt)

    def test_subset_bundle_matches_full_outside_pt(self, traced):
        program, bundle, blob = traced
        tids = sorted(bundle.pt_traces)
        keep = frozenset(tids[:2])
        full = read_trace_bytes(blob, program=program)
        partial = read_trace_bytes(blob, program=program, threads=keep)
        assert set(partial.pt_traces) == set(keep)
        for tid in keep:
            assert (rows(partial.pt_traces[tid])
                    == rows(full.pt_traces[tid]))
        assert partial.samples == full.samples
        assert partial.sync_records == full.sync_records
        assert partial.alloc_records == full.alloc_records
        assert partial.run == full.run

    def test_read_trace_threads_filter(self, traced, tmp_path):
        program, bundle, _ = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        tid = sorted(bundle.pt_traces)[0]
        loaded = read_trace(path, program=program,
                            threads=frozenset({tid}))
        assert set(loaded.pt_traces) == {tid}


class TestBundleParity:
    def test_full_bundle_matches_eager_read(self, traced):
        program, bundle, blob = traced
        loaded = read_trace_bytes(blob, program=program)
        assert loaded.samples == bundle.samples
        assert set(loaded.pt_traces) == set(bundle.pt_traces)
        assert loaded.sync_records == bundle.sync_records
        assert loaded.alloc_records == bundle.alloc_records
        assert loaded.run.tsc == bundle.run.tsc
        assert loaded.run.memory_ops == bundle.run.memory_ops
        assert loaded.defects is None

    def test_salvage_parity_through_reader(self, traced, tmp_path):
        program, bundle, _ = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        corrupt_trace_file(path, seed=1, section_index=1)  # pebs
        reader = open_trace(path, allow_partial=True)
        assert not reader.file_intact
        assert reader.salvage
        loaded = reader.bundle(program=program)
        assert loaded.defects is not None
        assert loaded.defects.corrupted_sections == ("pebs#1",)
        assert loaded.samples == []
        assert loaded.sync_records == bundle.sync_records

    def test_corrupt_section_raises_without_salvage(self, traced,
                                                    tmp_path):
        program, bundle, _ = traced
        path = tmp_path / "t.prtr"
        write_trace(bundle, path)
        corrupt_trace_file(path, seed=1, section_index=1)
        with pytest.raises(TraceFormatError):
            read_trace(path, program=program)

    def test_truncated_blob_rejected_at_open(self, traced):
        _, _, blob = traced
        with pytest.raises(TraceFormatError):
            TraceReader(blob[: len(blob) // 2], allow_partial=True)
