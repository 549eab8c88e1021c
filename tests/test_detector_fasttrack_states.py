"""FastTrack internal state-machine transitions (the adaptive epoch /
vector-clock representation the algorithm is named for)."""

from repro.detector import Access, AccessKind, FastTrack, SyncOp

VAR = (0x1000, 0)


def read(tid, ip=1):
    return Access(tid=tid, var=VAR, kind=AccessKind.READ, ip=ip, tsc=0.0,
                  provenance="test")


def write(tid, ip=2):
    return Access(tid=tid, var=VAR, kind=AccessKind.WRITE, ip=ip, tsc=0.0,
                  provenance="test")


def bump(ft, tid):
    """Advance a thread's epoch (release on a private lock)."""
    ft.sync(SyncOp(tid, "unlock", 0xF00 + tid, 0.0))


class TestReadRepresentation:
    def test_exclusive_read_stays_epoch(self):
        ft = FastTrack()
        ft.access(read(0))
        state = ft._vars[VAR]
        assert state.read_vc is None
        assert state.read_tid == 0

    def test_ordered_second_reader_stays_epoch(self):
        """A read that happens-after the previous read just replaces the
        epoch — no inflation."""
        ft = FastTrack()
        ft.access(read(0))
        ft.sync(SyncOp(0, "unlock", 0xA, 0.0))
        ft.sync(SyncOp(1, "lock", 0xA, 0.0))
        ft.access(read(1))
        state = ft._vars[VAR]
        assert state.read_vc is None
        assert state.read_tid == 1

    def test_concurrent_readers_inflate_to_vector(self):
        ft = FastTrack()
        ft.access(read(0))
        ft.access(read(1))
        state = ft._vars[VAR]
        assert state.read_vc is not None
        assert state.read_vc.get(0) > 0 and state.read_vc.get(1) > 0

    def test_write_deflates_read_vector(self):
        """After a write, FastTrack discards the shared-read set (all
        reads are ordered-before or reported)."""
        ft = FastTrack()
        ft.access(read(0))
        ft.access(read(1))
        ft.access(write(0))
        state = ft._vars[VAR]
        assert state.read_vc is None
        # Read epoch back to ⊥e (tid == -1 in the int representation).
        assert state.read_tid == -1 and state.read_clock == 0

    def test_same_epoch_read_fast_path(self):
        ft = FastTrack()
        ft.access(read(0))
        processed = ft.accesses_processed
        races = len(ft.races)
        ft.access(read(0))  # same epoch: no state change, no new race
        assert ft.accesses_processed == processed + 1
        assert len(ft.races) == races
        assert ft._vars[VAR].read_vc is None


class TestWriteRepresentation:
    def test_write_epoch_advances_with_thread_clock(self):
        ft = FastTrack()
        ft.access(write(0))
        state = ft._vars[VAR]
        first = (state.write_clock, state.write_tid)
        bump(ft, 0)
        ft.access(write(0))
        second = (state.write_clock, state.write_tid)
        assert second[1] == first[1] == 0
        assert second[0] > first[0]

    def test_same_epoch_write_fast_path_keeps_ip(self):
        ft = FastTrack()
        ft.access(write(0, ip=7))
        ft.access(write(0, ip=8))  # same epoch: shortcut, ip not updated
        assert ft._vars[VAR].write_ip == 7


class TestCounters:
    def test_processed_counts(self):
        ft = FastTrack()
        ft.access(read(0))
        ft.access(write(1))
        ft.sync(SyncOp(0, "unlock", 0xA, 0.0))
        assert ft.accesses_processed == 2
        assert ft.sync_processed == 1

    def test_unknown_sync_kind_rejected(self):
        ft = FastTrack()
        try:
            ft.sync(SyncOp(0, "barrier", 0xA, 0.0))
        except ValueError as exc:
            assert "barrier" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
