"""Decoder edge cases: window lookup, locate misses, torn tails, the
step budget, an undecodable stream."""

import dataclasses
import time

import pytest

from repro.errors import EXIT_TRACE_ERROR
from repro.isa import Instruction, Op, Program, ProgramError, assemble
from repro.machine import Machine
from repro.pmu import PTPacketizer
from repro.pmu.pt import PacketKind
from repro.pmu.records import SyncRecord
from repro.ptdecode import DecodeError, decode_all, decode_thread, locate_syncs
from repro.ptdecode.decoder import DecodedPath
from repro.replay import ReplayEngine
from repro.tracing import trace_run

from tests.helpers import stream_of


def _path():
    return DecodedPath(
        tid=0,
        steps=[10, 11, 12, 13, 14, 15, 16],
        anchors=[(0, 100), (3, 200), (6, 300)],
    )


class TestSegmentLookup:
    def test_inside_window(self):
        assert _path().segment_for_tsc(150) == (0, 3)
        assert _path().segment_for_tsc(250) == (3, 6)

    def test_exactly_at_anchor(self):
        # Window is half-open on the left: tsc == anchor maps to the
        # segment *ending* at that anchor.
        assert _path().segment_for_tsc(200) == (0, 3)

    def test_before_first_anchor(self):
        assert _path().segment_for_tsc(50) == (-1, 0)

    def test_after_last_anchor(self):
        assert _path().segment_for_tsc(999) == (6, 6)


class TestLocate:
    def test_unique_hit(self):
        path = _path()
        assert path.locate(12, 150) == 2

    def test_wrong_window_misses(self):
        path = _path()
        # ip 12 executed in the first window; searching the second
        # window's time range must not find it.
        assert path.locate(12, 250) is None

    def test_unknown_ip_misses(self):
        assert _path().locate(99, 150) is None

    def test_ambiguity_counted(self):
        path = DecodedPath(
            tid=0, steps=[10, 11, 10, 12], anchors=[(0, 100), (3, 200)],
        )
        index = path.locate(10, 150)
        assert index == 0  # first occurrence
        assert path.ambiguous == 1


class TestLocateSyncs:
    def test_records_from_other_windows_skipped(self, clean_program):
        bundle = trace_run(clean_program, period=3, seed=2)
        from repro.ptdecode import decode_all

        paths = decode_all(clean_program, bundle.pt_traces)
        # A fabricated record whose ip never executed must be dropped.
        bogus = SyncRecord(tsc=5, seq=0, tid=0, ip=10_000, kind="lock",
                           target=1)
        located = locate_syncs(paths[0], [bogus])
        assert located == []

    def test_all_real_records_locate(self, clean_program):
        bundle = trace_run(clean_program, period=3, seed=2)
        from repro.ptdecode import decode_all

        paths = decode_all(clean_program, bundle.pt_traces)
        for tid, path in paths.items():
            records = [r for r in bundle.sync_records if r.tid == tid]
            located = locate_syncs(path, records)
            assert len(located) == len(records)
            for record, step in located:
                assert path.steps[step] == record.ip


class TestLazyLocateIndices:
    """The bisect-backed query indices must behave exactly like the old
    linear window scan, ambiguity accounting included."""

    def test_locate_equals_naive_scan(self):
        path = DecodedPath(
            tid=0,
            steps=[10, 11, 10, 12, 10, 11, 13],
            anchors=[(0, 100), (3, 200), (6, 300)],
        )
        for tsc in (50, 100, 150, 200, 250, 300, 400):
            lo, hi = path.segment_for_tsc(tsc)
            for ip in (10, 11, 12, 13, 99):
                naive = [
                    j for j in range(max(lo, 0),
                                     min(hi, len(path.steps) - 1) + 1)
                    if path.steps[j] == ip
                ]
                expected = naive[0] if naive else None
                assert path.locate(ip, tsc) == expected

    def test_ambiguous_window_counted_once(self):
        path = DecodedPath(
            tid=0, steps=[10, 10, 10], anchors=[(0, 100), (2, 200)],
        )
        assert path.locate(10, 150) == 0
        assert path.ambiguous == 1

    def test_gap_still_refuses_placement(self):
        path = DecodedPath(
            tid=0, steps=[10, 11], anchors=[(0, 100), (1, 200)],
            gap_ranges=[(120, 180)],
        )
        assert path.locate(10, 150) is None
        assert path.locate(11, 200) == 1


def _stream(start_ip=0, packets=()):
    return stream_of(packets, start_ip=start_ip)


class TestStepBudget:
    """Decode's step budget and its exits, which a run-at-a-time
    decoder must hit at exactly the step a per-instruction one would."""

    @pytest.mark.parametrize("source", [
        "main:\n    nop\nl:\n    nop\n    jmp l\n",
        "main:\n    nop\nl:\n    call l\n",
    ])
    def test_direct_transfer_cycle_fails_at_once(self, source):
        # No packet can leave the loop, so decode can only run out of
        # budget; it must say so without walking 50M steps first.
        program = assemble(source)
        begin = time.perf_counter()
        with pytest.raises(DecodeError,
                           match=r"^decode exceeded 50000000 steps$"):
            decode_thread(program, _stream())
        assert time.perf_counter() - begin < 1.0

    def test_direct_transfer_cycle_small_budget(self):
        program = assemble("main:\n    nop\nl:\n    nop\n    jmp l\n")
        with pytest.raises(DecodeError,
                           match=r"^decode exceeded 1000 steps$"):
            decode_thread(program, _stream(), max_steps=1000)

    def test_exact_budget(self):
        program = assemble(
            "main:\n    mov $2, %rcx\nl:\n    dec %rcx\n    cmp $0, %rcx\n"
            "    jne l\n    call f\n    halt\nf:\n    nop\n    ret\n"
        )
        machine = Machine(program, seed=0)
        pt = PTPacketizer()
        machine.attach(pt)
        machine.run()
        trace = pt.traces[0]
        steps = len(decode_thread(program, trace).steps)
        assert steps == 11
        path = decode_thread(program, trace, max_steps=steps)
        assert len(path.steps) == steps
        with pytest.raises(DecodeError,
                           match=rf"^decode exceeded {steps - 1} steps$"):
            decode_thread(program, trace, max_steps=steps - 1)

    def test_leaving_the_program_at_the_budget(self):
        # The step after the last instruction is off the program: with
        # budget to spare that is the error, at the budget the budget is.
        program = assemble("main:\n    nop\n    nop\n")
        with pytest.raises(DecodeError,
                           match=r"^decoded ip 2 out of program range$"):
            decode_thread(program, _stream(), max_steps=3)
        with pytest.raises(DecodeError,
                           match=r"^decode exceeded 2 steps$"):
            decode_thread(program, _stream(), max_steps=2)

    def test_untargeted_call(self):
        program = Program([Instruction(Op.NOP), Instruction(Op.CALL)],
                          labels={"main": 0})
        trace = _stream(packets=[(PacketKind.END, 5, 0)])
        with pytest.raises(ProgramError, match="has no direct target"):
            decode_thread(program, trace, max_steps=2)
        # A budget that runs out before the call wins over the call.
        with pytest.raises(DecodeError,
                           match=r"^decode exceeded 1 steps$"):
            decode_thread(program, trace, max_steps=1)


def test_undecodable_stream_is_bad_input(clean_program):
    """A stream no decode can follow is unusable input (exit 2) from
    both strict decode entry points, not a crashed worker (exit 4)."""
    bundle = trace_run(clean_program, period=3, seed=4)
    last = max(bundle.pt_traces)
    bundle.pt_traces[last] = dataclasses.replace(
        bundle.pt_traces[last], start_ip=10**9)
    with pytest.raises(DecodeError) as decoded:
        decode_all(clean_program, bundle.pt_traces)
    with pytest.raises(DecodeError) as replayed:
        ReplayEngine(clean_program).replay_bundle(bundle)
    assert decoded.value.exit_code == replayed.value.exit_code \
        == EXIT_TRACE_ERROR
