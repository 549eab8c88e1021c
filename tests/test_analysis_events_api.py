"""The events_for API: ordering guarantees alternative detectors rely on."""

import pytest

from repro.analysis import OfflinePipeline
from repro.detector import Access, SyncOp
from repro.tracing import trace_run


@pytest.fixture
def events_and_replay(racy_program):
    bundle = trace_run(racy_program, period=4, seed=6)
    return OfflinePipeline(racy_program).events_for(bundle)


class TestEventStream:
    def test_sorted_by_key(self, events_and_replay):
        events, _ = events_and_replay
        keys = [key for key, _ in events]
        assert keys == sorted(keys)

    def test_per_thread_program_order(self, events_and_replay):
        """Within one thread, event order must follow program order —
        the property that makes the stream HB-consistent."""
        events, replay = events_and_replay
        last_tsc = {}
        for key, event in events:
            tsc = key[0]
            tid = event.tid
            assert tsc >= last_tsc.get(tid, float("-inf"))
            last_tsc[tid] = tsc

    def test_unlock_precedes_matching_lock(self, clean_program):
        """For every lock address, the stream alternates so that each
        acquisition is preceded by the release it synchronizes with."""
        bundle = trace_run(clean_program, period=4, seed=3)
        events, _ = OfflinePipeline(clean_program).events_for(bundle)
        held = {}
        for _, event in events:
            if not isinstance(event, SyncOp):
                continue
            if event.kind == "lock":
                assert held.get(event.target) is None, \
                    "lock acquired while held"
                held[event.target] = event.tid
            elif event.kind == "unlock":
                assert held.get(event.target) == event.tid
                held[event.target] = None

    def test_access_count_matches_replay(self, events_and_replay):
        events, replay = events_and_replay
        accesses = [e for _, e in events if isinstance(e, Access)]
        expected = sum(len(v) for v in replay.per_thread.values())
        assert len(accesses) == expected

    def test_sampled_accesses_have_exact_integer_tsc(self, events_and_replay):
        events, _ = events_and_replay
        for _, event in events:
            if isinstance(event, Access) and event.provenance == "sampled":
                assert float(event.tsc).is_integer()


class TestSharedKeyHelpers:
    """Satellite: the (tsc, kind, tid, seq) total-order key lives in one
    place — repro.detector.events — and the stream's keys are exactly
    what those helpers produce."""

    def test_stream_keys_match_shared_helpers(self, events_and_replay):
        from types import SimpleNamespace

        from repro.detector.events import (
            EVENT_KIND_ACCESS,
            EVENT_KIND_SYNC,
            access_sort_key,
            sync_sort_key,
        )

        events, _ = events_and_replay
        assert events
        for key, event in events:
            if isinstance(event, Access):
                assert key == access_sort_key(event.tsc, event.tid, key[3])
                assert key[1] == EVENT_KIND_ACCESS
            else:
                assert key == sync_sort_key(
                    SimpleNamespace(tsc=event.tsc, seq=key[3])
                )
                assert key[1] == EVENT_KIND_SYNC

    def test_access_sorts_before_sync_at_equal_tsc(self):
        from types import SimpleNamespace

        from repro.detector.events import access_sort_key, sync_sort_key

        access_key = access_sort_key(5.0, 3, 9)
        sync_key = sync_sort_key(SimpleNamespace(tsc=5.0, seq=0))
        assert access_key < sync_key
