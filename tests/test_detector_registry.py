"""Detector backend registry: resolution, the common protocol, and the
deterministic findings accessors every backend shares."""

import pytest

from repro.detector import (
    Access,
    AccessKind,
    DEFAULT_DETECTOR,
    DetectionFindings,
    DetectorBackend,
    FastTrack,
    LocksetDetector,
    O1SamplesDetector,
    PredictiveDetector,
    ReferenceDetector,
    SyncOp,
    backend_names,
    create_backend,
    register_backend,
    resolve_detector,
    resolve_detectors,
)
from repro.errors import EXIT_TRACE_ERROR, UnknownDetectorError, UsageError

VAR = (0x1000, 0)

#: The class each registered name builds.
BACKEND_CLASSES = {
    "fasttrack": FastTrack,
    "reference": ReferenceDetector,
    "lockset": LocksetDetector,
    "o1": O1SamplesDetector,
    "predict": PredictiveDetector,
}


def write(tid, ip=2):
    return Access(tid=tid, var=VAR, kind=AccessKind.WRITE, ip=ip, tsc=0.0,
                  provenance="test")


class TestResolution:
    def test_all_backends_registered(self):
        assert set(backend_names()) >= {
            "fasttrack", "reference", "lockset", "o1", "predict",
        }

    def test_default_is_fasttrack(self):
        assert DEFAULT_DETECTOR == "fasttrack"
        assert resolve_detectors(()) == ("fasttrack",)

    def test_create_returns_fresh_instances(self):
        first = create_backend("fasttrack")
        second = create_backend("fasttrack")
        assert isinstance(first, FastTrack)
        assert first is not second

    @pytest.mark.parametrize("name", backend_names())
    def test_create_builds_the_registered_class(self, name):
        """The registry hands out the backend itself, not a wrapper, so
        a pipeline that selects its detector by name runs the very
        methods a direct construction would."""
        assert set(backend_names()) == set(BACKEND_CLASSES)
        assert type(create_backend(name)) is BACKEND_CLASSES[name]

    def test_names_normalize(self):
        assert resolve_detector(" FastTrack ") == "fasttrack"

    def test_comma_lists_and_dedup(self):
        assert resolve_detectors(["fasttrack,o1", "o1", "lockset"]) == (
            "fasttrack", "o1", "lockset",
        )

    def test_unknown_name_raises_usage_error(self):
        with pytest.raises(UnknownDetectorError) as info:
            resolve_detector("fastrack")
        error = info.value
        assert isinstance(error, UsageError)
        assert error.exit_code == EXIT_TRACE_ERROR == 2
        assert error.suggestion == "fasttrack"
        assert "did you mean 'fasttrack'" in str(error)

    def test_unknown_name_without_lookalike(self):
        with pytest.raises(UnknownDetectorError) as info:
            resolve_detector("zzzzz")
        assert info.value.suggestion is None
        assert "available:" in str(info.value)

    def test_register_new_backend(self):
        class Null(DetectorBackend):
            name = "nulltest"

            def sync(self, op):
                self.sync_processed += 1

            def access(self, access):
                self.accesses_processed += 1

        register_backend("nulltest", Null)
        try:
            assert "nulltest" in backend_names()
            backend = create_backend("nulltest")
            backend.access(write(0))
            findings = backend.finish()
            assert findings.backend == "nulltest"
            assert findings.accesses_processed == 1
        finally:
            from repro.detector import registry

            del registry._REGISTRY["nulltest"]


class TestFindingsAccessors:
    """Satellite: every backend exposes the same deterministic, sorted
    findings accessors (the old distinct_races/racy_addresses asymmetry
    is gone)."""

    def _racy_backend(self, name):
        backend = create_backend(name)
        backend.access(write(0, ip=10))
        backend.access(write(1, ip=11))
        return backend

    @pytest.mark.parametrize("name", ["fasttrack", "reference", "lockset",
                                      "o1", "predict"])
    def test_protocol_surface(self, name):
        backend = self._racy_backend(name)
        findings = backend.finish()
        assert isinstance(findings, DetectionFindings)
        assert findings.backend == name
        assert findings.accesses_processed == 2
        # Identical accessor family on instance and findings.
        assert backend.racy_addresses() == findings.racy_addresses
        assert backend.sorted_addresses() == findings.sorted_addresses()
        assert backend.sorted_pairs() == findings.sorted_pairs()
        assert [r.var for r in backend.sorted_races()] == [
            r.var for r in findings.sorted_races()
        ]

    @pytest.mark.parametrize("name", ["fasttrack", "reference", "lockset",
                                      "o1"])
    def test_two_unlocked_writes_are_racy(self, name):
        findings = self._racy_backend(name).finish()
        assert VAR[0] in findings.racy_addresses
        assert findings.sorted_addresses() == (VAR[0],)

    def test_sorted_accessors_are_sorted_and_stable(self):
        backend = create_backend("fasttrack")
        for address in (0x3000, 0x1000, 0x2000):
            var = (address, 0)
            backend.access(Access(tid=0, var=var, kind=AccessKind.WRITE,
                                  ip=1, tsc=0.0, provenance="test"))
            backend.access(Access(tid=1, var=var, kind=AccessKind.WRITE,
                                  ip=2, tsc=0.0, provenance="test"))
        findings = backend.finish()
        assert findings.sorted_addresses() == (0x1000, 0x2000, 0x3000)
        assert findings.sorted_pairs() == tuple(sorted(findings.racy_pairs))
        races = findings.sorted_races()
        assert list(races) == sorted(
            races, key=lambda r: (r.var, r.pair, r.first_tid,
                                  r.second.tid, r.first_kind.value,
                                  r.second.kind.value)
        )

    def test_to_dict_round_trips_json(self):
        import json

        findings = self._racy_backend("fasttrack").finish()
        payload = json.loads(json.dumps(findings.to_dict()))
        assert payload["backend"] == "fasttrack"
        assert payload["distinct_races"] == 1
        assert payload["racy_addresses"] == [hex(VAR[0])]


class TestSyncCounters:
    @pytest.mark.parametrize("name", ["fasttrack", "reference", "lockset",
                                      "o1", "predict"])
    def test_sync_processed_counts(self, name):
        backend = create_backend(name)
        backend.sync(SyncOp(tid=0, kind="lock", target=0x900, tsc=0.0))
        backend.sync(SyncOp(tid=0, kind="unlock", target=0x900, tsc=1.0))
        findings = backend.finish()
        assert findings.sync_processed == 2
