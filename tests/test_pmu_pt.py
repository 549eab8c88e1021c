"""Unit tests for PT packetization and byte accounting."""

import pytest

from repro.isa import assemble
from repro.machine import Machine
from repro.pmu import (
    PTConfig,
    PTPacketizer,
    PacketKind,
    TIP_BYTES,
    TNT_BITS_PER_BYTE,
)

from tests.helpers import CLEAN_COUNTER_ASM, rows


def _packetize(source, config=None, seed=0):
    program = assemble(source)
    machine = Machine(program, seed=seed)
    pt = PTPacketizer(config or PTConfig())
    machine.attach(pt)
    machine.run()
    return program, pt


LOOP = """
main:
    mov $10, %rcx
loop:
    dec %rcx
    cmp $0, %rcx
    jne loop
    halt
"""


class TestPackets:
    def test_conditional_branches_emit_tnt(self):
        _, pt = _packetize(LOOP)
        trace = pt.traces[0]
        tnts = [row for row in rows(trace) if row[0] == PacketKind.TNT]
        assert len(tnts) == 10
        assert [value for _, _, value in tnts] == [1] * 9 + [0]

    def test_halt_emits_end(self):
        _, pt = _packetize(LOOP)
        assert rows(pt.traces[0])[-1][0] == PacketKind.END

    def test_direct_call_emits_no_packet(self):
        src = "main:\n    call f\n    halt\nf:\n    ret\n"
        _, pt = _packetize(src)
        kinds = [kind for kind, _, _ in rows(pt.traces[0])]
        # ret is compressed to a TNT bit; the call itself is silent.
        assert kinds == [PacketKind.TNT, PacketKind.END]

    def test_ret_compression_off_emits_tip(self):
        src = "main:\n    call f\n    halt\nf:\n    ret\n"
        _, pt = _packetize(src, PTConfig(ret_compression=False))
        kinds = [kind for kind, _, _ in rows(pt.traces[0])]
        assert kinds == [PacketKind.TIP, PacketKind.END]

    def test_indirect_jmp_emits_tip(self):
        src = ("main:\n    mov $4, %rax\n    jmp %rax\n    halt\n    halt\n"
               "t:\n    halt\n")
        _, pt = _packetize(src)
        tips = [row for row in rows(pt.traces[0])
                if row[0] == PacketKind.TIP]
        assert len(tips) == 1 and tips[0][2] == 4

    def test_per_thread_streams(self):
        _, pt = _packetize(CLEAN_COUNTER_ASM)
        assert set(pt.traces) == {0, 1}
        for trace in pt.traces.values():
            assert rows(trace)[-1][0] == PacketKind.END

    def test_packet_tscs_monotone(self):
        _, pt = _packetize(CLEAN_COUNTER_ASM)
        for trace in pt.traces.values():
            tscs = [tsc for _, tsc, _ in rows(trace)]
            assert tscs == sorted(tscs)


class TestRegionFilter:
    def test_at_most_four_filters(self):
        with pytest.raises(ValueError):
            PTConfig(filters=tuple((i, i + 1) for i in range(5)))

    def test_filter_suppresses_out_of_region_branches(self):
        program = assemble(LOOP)
        # Exclude everything: no branch packets at all.
        _, pt = _packetize(LOOP, PTConfig(filters=((900, 901),)))
        trace = pt.traces[0]
        branch_packets = [
            row for row in rows(trace) if row[0] != PacketKind.END
        ]
        assert not branch_packets
        assert trace.truncated

    def test_whole_program_filter_equals_no_filter(self):
        program = assemble(LOOP)
        _, unfiltered = _packetize(LOOP)
        _, filtered = _packetize(
            LOOP, PTConfig(filters=((0, len(program)),))
        )
        assert [row[0] for row in rows(unfiltered.traces[0])] == \
            [row[0] for row in rows(filtered.traces[0])]


class TestSizeAccounting:
    def test_tnt_bits_pack_six_per_byte(self):
        src_many = """
main:
    mov $60, %rcx
loop:
    dec %rcx
    cmp $0, %rcx
    jne loop
    halt
"""
        _, pt = _packetize(src_many)
        config = PTConfig(mtc_period=0, psb_period=0)
        size = pt.traces[0].size_bytes(config)
        # 60 TNT bits -> 10 bytes, plus PSB+TIP header and END TIP.
        expected = 16 + TIP_BYTES + -(-60 // TNT_BITS_PER_BYTE) + TIP_BYTES
        assert size == expected

    def test_size_grows_with_branch_count(self):
        short = _packetize(LOOP)[1].total_size_bytes()
        long_src = LOOP.replace("$10", "$500")
        long = _packetize(long_src)[1].total_size_bytes()
        assert long > short

    def test_compression_is_dense(self):
        """PT compresses massively relative to one word per branch."""
        machine = Machine(assemble(LOOP.replace("$10", "$600")))
        pt = PTPacketizer(PTConfig())
        machine.attach(pt)
        result = machine.run()
        assert pt.total_size_bytes() < result.branches * 2
