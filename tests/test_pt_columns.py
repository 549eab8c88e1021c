"""PT streams as columns, against the packet-list reference.

The packetizer appends each branch's packet to three columns (kinds,
TSCs, values), and fault injection, clock correction and repair, the
container and the decoder all work on those columns.  The reference in
``tests/helpers.py`` is the PT path as it was when every branch built a
``PTPacket`` object: ``ReferencePTPacketizer``, the packet-list PT
section writer and reader, gap injection, and the PT parts of clock
fault injection, correction and repair.  Each test here runs both on
one program and schedule and compares the streams row by row, as
``(kind, tsc, value)``, together with the container bytes.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.literace import LiteRace
from repro.clock.repair import apply_clock_correction, repair_streams
from repro.faults import FaultPlan, LoadBurstPlan, builtin_plans, clock_plans
from repro.isa import assemble
from repro.machine import Machine, MachineError
from repro.pmu import PTConfig, PTPacketizer
from repro.pmu.pt import RET_STACK_DEPTH, PacketKind
from repro.pmu.governor import GovernorConfig
from repro.tracing import read_trace_bytes, trace_run, trace_to_bytes
from repro.tracing.serialize import (
    _PACKET,
    _PT_HEADER,
    _SEC_PT,
    TraceFormatError,
    TraceReader,
    _decode_pt,
    _encode_pt,
)
from repro.workloads import (
    APP_WORKLOADS,
    RACE_BUGS,
    WorkloadScale,
    generate_racy_program,
)

from tests.helpers import (
    ReferencePTPacketizer,
    assert_same_streams,
    reference_apply_gaps,
    reference_clock_fault_streams,
    reference_corrected_streams,
    reference_decode_pt,
    reference_encode_pt,
    reference_pt_trace_run,
    reference_repair_streams,
    reference_trace_to_bytes,
    rows,
    stream_of,
)

#: The machine goldens' scale.
SCALE = WorkloadScale(iterations=8, threads=2, data_words=8, io_cycles=50)
FAULT_INTENSITY = 0.2
PLAN_SEEDS = range(10)


@pytest.fixture(scope="module")
def corpus():
    """The Table 2 programs and the six app models."""
    programs = {f"bug:{name}": bug.build(SCALE)
                for name, bug in RACE_BUGS.items()}
    programs.update({f"app:{name}": workload.build(SCALE)
                     for name, workload in APP_WORKLOADS.items()})
    return programs


@pytest.fixture(scope="module")
def long_program():
    """A Table 2 program long enough for a governor to act on."""
    return RACE_BUGS["pbzip2-0.9.4"].build(
        WorkloadScale(iterations=50, threads=4))


def assert_same(program, **kwargs):
    """Trace *program* with the packetizer and with the reference
    (``trace_run``'s arguments); assert that the streams, the PT size,
    the container bytes and the governor report agree.  Returns both
    bundles."""
    ours = trace_run(program, **kwargs)
    ref = reference_pt_trace_run(program, **kwargs)
    assert_same_streams(ours.pt_traces, ref.pt_traces)
    assert ours.pt_size_bytes == ref.pt_size_bytes
    assert trace_to_bytes(ours) == reference_trace_to_bytes(ref)
    assert ours.governor == ref.governor
    assert ours.run == ref.run
    return ours, ref


def pt_payloads(blob):
    """The PT section payloads of container *blob*."""
    reader = TraceReader(blob)
    return [reader.payload(entry) for entry in reader.sections
            if entry.kind == _SEC_PT]


class TestCorpus:
    @pytest.mark.parametrize("period", [13, 1_000])
    def test_same_streams(self, corpus, period):
        for name, program in corpus.items():
            assert_same(program, period=period, seed=3)

    def test_section_reader_and_writer(self, corpus):
        for program in corpus.values():
            ours, ref = assert_same(program, period=13, seed=0)
            for tid, trace in ours.pt_traces.items():
                assert _encode_pt(trace) == reference_encode_pt(
                    ref.pt_traces[tid])
            payloads = pt_payloads(trace_to_bytes(ours))
            assert len(payloads) == len(ours.pt_traces)
            for payload in payloads:
                trace = _decode_pt(payload)
                reference = reference_decode_pt(payload)
                assert rows(trace) == reference.rows
                assert trace == ours.pt_traces[trace.tid]

    def test_packets_emitted(self, corpus):
        program = corpus["bug:aget-bug2"]
        ours, theirs = PTPacketizer(), ReferencePTPacketizer()
        for packetizer in (ours, theirs):
            machine = Machine(program, seed=1)
            machine.attach(packetizer)
            branches = machine.run().branches
        assert ours.packets_emitted == theirs.packets_emitted > 0
        # The reference counted branches; the run result counts them too.
        assert theirs.branches_seen == branches


class TestConfigs:
    @pytest.mark.parametrize("name", ["bug:apache-25520", "bug:pfscan",
                                      "app:pfscan"])
    def test_region_filter(self, corpus, name):
        program = corpus[name]
        config = PTConfig(filters=((0, len(program) // 2),))
        ours, _ref = assert_same(program, period=13, seed=0,
                                 pt_config=config)
        assert any(trace.truncated for trace in ours.pt_traces.values())

    @pytest.mark.parametrize("name", sorted(RACE_BUGS))
    def test_no_return_compression(self, corpus, name):
        assert_same(corpus[f"bug:{name}"], period=13, seed=0,
                    pt_config=PTConfig(ret_compression=False))


class TestGoverned:
    def test_shed_pt(self, long_program):
        ours, _ref = assert_same(
            long_program, period=2, seed=0,
            governor=GovernorConfig(overhead_budget=0.02, k_max=16384),
            load_bursts=LoadBurstPlan(seed=0, multiplier=16))
        assert ours.governor.pt_sheds > 0
        assert ours.governor.pt_packets_shed > 0

    def test_watchdog_trips(self, long_program):
        ours, _ref = assert_same(
            long_program, period=100, seed=0,
            governor=GovernorConfig(overhead_budget=0.5),
            load_bursts=LoadBurstPlan(seed=0, stall_pebs_at=3_000))
        assert ours.governor.watchdog_trips == 1


def test_literace_beside_the_packetizer(corpus):
    """LiteRace also takes every branch; attached with the packetizer it
    sees the same calls and the packetizer writes the same streams."""
    program = corpus["bug:mysql-644"]
    runs = []
    for packetizer in (PTPacketizer(), ReferencePTPacketizer()):
        machine = Machine(program, seed=2)
        literace = LiteRace(program, seed=3)
        machine.attach(literace)
        machine.attach(packetizer)
        machine.run()
        runs.append((packetizer, literace))
    (ours, ours_lr), (ref, ref_lr) = runs
    assert_same_streams(ours.traces, ref.traces)
    assert ours_lr.dispatch_checks == ref_lr.dispatch_checks > 0
    assert ours_lr.logged_accesses == ref_lr.logged_accesses
    assert ours_lr.racy_addresses() == ref_lr.racy_addresses()


def test_wild_jump_faults_as_before():
    """A jump outside the 64-bit signed range is recorded as the signed
    word of the same bits, and the run fails at the next fetch as it
    does untraced."""
    program = assemble("main:\n    mov $-1, %rax\n    jmp %rax\n")
    targets = []
    for packetizer in (PTPacketizer(), ReferencePTPacketizer()):
        machine = Machine(program)
        machine.attach(packetizer)
        with pytest.raises(MachineError, match=f"ip {2**64 - 1}$"):
            machine.run()
        targets.append(packetizer.traces[0])
    ours, ref = targets
    assert rows(ours)[-1][2] == -1
    assert ref.packets[-1].target == 2**64 - 1


def test_return_stack_overflows_as_before():
    """Calls nested deeper than the hardware return stack push out its
    oldest frames, whose returns then cost a TIP."""
    program = assemble(
        "main:\n    mov $80, %rcx\n    call f\n    halt\n"
        "f:\n    dec %rcx\n    cmp $0, %rcx\n    je done\n    call f\n"
        "done:\n    ret\n")
    ours, _ref = assert_same(program, period=13)
    kinds = [kind for kind, _tsc, _value in rows(ours.pt_traces[0])]
    assert kinds.count(PacketKind.TIP) == 80 - RET_STACK_DEPTH


def test_transforms_on_a_hand_built_stream():
    """``retimed`` maps the start, the end, every packet TSC and every
    OVF gap end, never a TIP target; ``with_gap`` takes its gap from the
    span's first and last TSCs; neither changes the stream it reads."""
    packet_rows = [(PacketKind.TNT, 5, 1), (PacketKind.TIP, 7, 3),
                   (PacketKind.OVF, 9, 12), (PacketKind.TNT, 14, 0),
                   (PacketKind.END, 20, 0)]
    trace = stream_of(packet_rows, start_tsc=2, end_tsc=20)
    shifted = trace.retimed(lambda tsc: tsc - 100)
    assert (shifted.start_tsc, shifted.end_tsc) == (-98, -80)
    assert rows(shifted) == [(PacketKind.TNT, -95, 1),
                             (PacketKind.TIP, -93, 3),
                             (PacketKind.OVF, -91, -88),
                             (PacketKind.TNT, -86, 0),
                             (PacketKind.END, -80, 0)]
    regressed = trace.retimed(lambda tsc: tsc + 1, lambda tsc: 0)
    assert (regressed.start_tsc, regressed.end_tsc) == (3, 21)
    assert [row[1:] for row in rows(regressed)] == [
        (0, 1), (0, 3), (0, 13), (0, 0), (0, 0)]
    gapped = trace.with_gap(1, 4)
    assert rows(gapped) == [(PacketKind.TNT, 5, 1), (PacketKind.OVF, 7, 14),
                            (PacketKind.END, 20, 0)]
    assert rows(trace) == packet_rows


class TestFaultPlans:
    """Every ``builtin_plans`` family and ``clock_plans`` plan, at seeds
    0-9, over the Table 2 corpus."""

    @pytest.fixture(scope="class")
    def traced(self, corpus):
        return {name: assert_same(program, period=13, seed=1)
                for name, program in corpus.items()
                if name.startswith("bug:")}

    @pytest.mark.parametrize("family", sorted(builtin_plans(0.1)))
    def test_builtin_plan(self, traced, family):
        gaps = 0
        for seed in PLAN_SEEDS:
            plan = builtin_plans(FAULT_INTENSITY, seed=seed)[family]
            for ours, ref in traced.values():
                before = {tid: rows(t) for tid, t in ours.pt_traces.items()}
                degraded, defects = plan.apply(ours)
                ref_degraded, ref_defects = reference_apply_gaps(plan, ref)
                assert_same_streams(degraded.pt_traces,
                                    ref_degraded.pt_traces)
                assert defects == ref_defects
                assert trace_to_bytes(degraded) == \
                    reference_trace_to_bytes(ref_degraded)
                assert {tid: rows(t) for tid, t in ours.pt_traces.items()} \
                    == before
                gaps += defects.pt_gaps
        assert (gaps > 0) == bool(plan.pt_gap)

    def test_gaps_then_clock_faults(self, traced):
        """A plan with PT gaps and clock faults: the OVF gap ends pass
        through the faulty clocks and the correction."""
        for seed in PLAN_SEEDS:
            plan = FaultPlan(seed=seed, pt_gap=FAULT_INTENSITY,
                             clock_skew=FAULT_INTENSITY,
                             clock_drift=FAULT_INTENSITY,
                             clock_step=FAULT_INTENSITY,
                             clock_regress=FAULT_INTENSITY)
            gaps_only = dataclasses.replace(
                plan, clock_skew=0.0, clock_drift=0.0, clock_step=0.0,
                clock_regress=0.0)
            for ours, ref in traced.values():
                faulted, defects = plan.apply(ours)
                assert defects.pt_gaps
                ref_gapped, _ = reference_apply_gaps(gaps_only, ref)
                ref_streams = reference_clock_fault_streams(ref_gapped, plan)
                assert_same_streams(faulted.pt_traces, ref_streams)
                corrected, model, stats = apply_clock_correction(faulted)
                ref_corrected, ref_moved = reference_corrected_streams(
                    faulted, ref_streams, model)
                assert_same_streams(corrected.pt_traces, ref_corrected)
                assert stats.packet_moved == ref_moved

    @pytest.mark.parametrize("family", sorted(clock_plans(0.1)))
    def test_clock_plan(self, traced, family):
        negative = moved = 0
        for seed in PLAN_SEEDS:
            plan = clock_plans(FAULT_INTENSITY, seed=seed)[family]
            for ours, ref in traced.values():
                before = {tid: rows(t) for tid, t in ours.pt_traces.items()}
                faulted, _defects = plan.apply(ours)
                ref_streams = reference_clock_fault_streams(ref, plan)
                assert_same_streams(faulted.pt_traces, ref_streams)
                negative += any(min(trace.tscs, default=0) < 0
                                for trace in faulted.pt_traces.values())

                repaired, stats = repair_streams(faulted)
                ref_repaired, ref_moved = reference_repair_streams(
                    ref_streams)
                assert_same_streams(repaired.pt_traces, ref_repaired)
                assert stats.packet_moved == ref_moved

                corrected, model, stats = apply_clock_correction(faulted)
                ref_corrected, ref_moved = reference_corrected_streams(
                    faulted, ref_streams, model)
                assert_same_streams(corrected.pt_traces, ref_corrected)
                assert stats.packet_moved == ref_moved
                moved += ref_moved
                assert {tid: rows(t) for tid, t in ours.pt_traces.items()} \
                    == before
        # The signed columns and the repair are exercised.
        if family in ("clock-skew", "clock-combined"):
            assert negative > 0
        if family in ("clock-regress", "clock-combined"):
            assert moved > 0


class TestSectionReader:
    @pytest.fixture(scope="class")
    def payload(self, corpus):
        bundle = trace_run(corpus["bug:aget-bug2"], period=13, seed=0)
        return bytes(pt_payloads(trace_to_bytes(bundle))[0])

    @pytest.mark.parametrize("kind", [4, 9, 255])
    def test_bad_kind(self, payload, kind):
        damaged = bytearray(payload)
        damaged[_PT_HEADER.size + _PACKET.size * 3] = kind  # 4th packet
        for decode in (_decode_pt, reference_decode_pt):
            with pytest.raises(TraceFormatError,
                               match=f"^bad packet kind {kind}$"):
                decode(bytes(damaged))

    @pytest.mark.parametrize("cut", [1, 16, 17])
    def test_bad_length(self, payload, cut):
        for decode in (_decode_pt, reference_decode_pt):
            with pytest.raises(TraceFormatError,
                               match="^PT stream length mismatch"):
                decode(payload[:-cut])

    def test_field_past_the_signed_range(self, payload):
        """The container's fields are unsigned; one that no signed column
        holds is a format error, not an overflow."""
        damaged = bytearray(payload)
        # The third packet's TSC, its top byte.
        damaged[_PT_HEADER.size + _PACKET.size * 2 + 8] = 0x80
        assert reference_decode_pt(bytes(damaged)).packets[2].tsc >= 2**63
        with pytest.raises(TraceFormatError, match="out of range"):
            _decode_pt(bytes(damaged))

    def test_writer_rejects_a_packet_of_no_kind(self):
        with pytest.raises(ValueError, match="no kind"):
            _encode_pt(stream_of([(None, 3, 0)]))


@given(seed=st.integers(min_value=0, max_value=10_000),
       period=st.sampled_from([3, 13, 1_000]),
       sched=st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_generated_programs(seed, period, sched):
    program = generate_racy_program(seed)[0]
    ours, _ref = assert_same(program, period=period, seed=sched)
    blob = trace_to_bytes(ours)
    loaded = read_trace_bytes(blob, program=program)
    for tid, trace in ours.pt_traces.items():
        assert rows(loaded.pt_traces[tid]) == rows(trace)
