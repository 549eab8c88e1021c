"""Lockset (Eraser) comparator tests — including the false positives
that motivate the paper's happens-before choice (§4.3)."""

from repro.detector import (
    Access,
    AccessKind,
    FastTrack,
    LocksetDetector,
    SyncOp,
)

VAR = (0x1000, 0)
LOCK = 0x900


def read(tid, ip=1):
    return Access(tid=tid, var=VAR, kind=AccessKind.READ, ip=ip, tsc=0.0,
                  provenance="test")


def write(tid, ip=2):
    return Access(tid=tid, var=VAR, kind=AccessKind.WRITE, ip=ip, tsc=0.0,
                  provenance="test")


def sync(tid, kind, target=LOCK):
    return SyncOp(tid=tid, kind=kind, target=target, tsc=0.0)


def run(detector, events):
    for event in events:
        if isinstance(event, SyncOp):
            detector.sync(event)
        else:
            detector.access(event)
    return detector


class TestDetection:
    def test_unlocked_shared_write_flagged(self):
        detector = run(LocksetDetector(), [write(0), write(1)])
        assert VAR[0] in detector.racy_addresses()

    def test_consistent_lock_not_flagged(self):
        events = []
        for tid in (0, 1):
            events += [sync(tid, "lock"), write(tid), sync(tid, "unlock")]
        detector = run(LocksetDetector(), events)
        assert not detector.racy_addresses()

    def test_disjoint_locks_flagged(self):
        # Eraser initializes the candidate set at the *second* thread's
        # access, so the empty intersection shows at the third access.
        events = [
            sync(0, "lock", 0x900), write(0), sync(0, "unlock", 0x900),
            sync(1, "lock", 0x901), write(1), sync(1, "unlock", 0x901),
            sync(0, "lock", 0x900), write(0), sync(0, "unlock", 0x900),
        ]
        detector = run(LocksetDetector(), events)
        assert VAR[0] in detector.racy_addresses()

    def test_thread_local_never_flagged(self):
        detector = run(LocksetDetector(), [write(0), read(0), write(0)])
        assert not detector.racy_addresses()

    def test_shared_readonly_never_flagged(self):
        detector = run(LocksetDetector(), [read(0), read(1), read(2)])
        assert not detector.racy_addresses()

    def test_single_warning_per_variable(self):
        detector = run(LocksetDetector(),
                       [write(0), write(1), write(0), write(1)])
        assert len(detector.warnings) == 1


class TestFalsePositives:
    """The imprecision the paper avoids by using happens-before."""

    def test_fork_join_ordering_is_a_lockset_false_positive(self):
        """Parent writes, joins child, writes again — HB-ordered, yet
        lockset sees a lock-free shared-modified variable."""
        events = [
            SyncOp(0, "fork", 1, 0.0),
            write(1),
            SyncOp(0, "join", 1, 0.0),
            write(0),
        ]
        lockset = run(LocksetDetector(), events)
        fasttrack = run(FastTrack(), events)
        assert VAR[0] in lockset.racy_addresses()      # false positive
        assert VAR[0] not in fasttrack.racy_addresses()  # precise

    def test_semaphore_ordering_is_a_lockset_false_positive(self):
        events = [
            write(0),
            sync(0, "sem_post", 0xA00),
            sync(1, "sem_wait", 0xA00),
            write(1),
        ]
        lockset = run(LocksetDetector(), events)
        fasttrack = run(FastTrack(), events)
        assert VAR[0] in lockset.racy_addresses()
        assert VAR[0] not in fasttrack.racy_addresses()


class TestOnRealWorkloads:
    def test_lockset_flags_handoff_patterns_fasttrack_accepts(self):
        """The dedup pipeline hands data through semaphores: race-free
        under HB, flagged by lockset — measured on the real event
        stream via the pipeline's events_for hook."""
        from repro.analysis import OfflinePipeline
        from repro.tracing import trace_run
        from repro.workloads import PARSEC_WORKLOADS, WorkloadScale

        program = PARSEC_WORKLOADS["dedup"].instantiate(
            WorkloadScale(iterations=10)
        )
        bundle = trace_run(program, period=2, seed=3)
        pipeline = OfflinePipeline(program)
        events, _ = pipeline.events_for(bundle)
        fasttrack, lockset = FastTrack(), LocksetDetector()
        for _, event in events:
            for detector in (fasttrack, lockset):
                if isinstance(event, SyncOp):
                    detector.sync(event)
                else:
                    detector.access(event)
        assert not fasttrack.racy_addresses()
        assert lockset.racy_addresses()  # the handoff slots
