"""Simulated Intel Processor Trace (PT): compressed control-flow tracing.

PT records the executed control flow in a highly compressed packet stream
(§4.2): conditional-branch outcomes as TNT bits (six per byte), indirect
targets as TIP packets, call-return pairs compressed via an internal
return stack (a compressed RET costs a single TNT bit), plus periodic
timing (MTC) and synchronization (PSB) packets.

A thread's stream is kept as three parallel columns, from the
packetizer through fault injection and clock correction to the
container and the decoder (see :class:`PTThreadTrace`): packet kinds,
TSCs, and one value per packet (the TNT bit, the TIP target or the OVF
gap end).  A branch appends to the columns; no object is built per
packet.

Two fidelities coexist here, as explained in DESIGN.md §2:

* **Byte accounting** follows the packed on-wire format, so trace-size
  experiments (Figures 8–9) measure what real PT would write.
* **Decode fidelity** carries an exact per-packet TSC side channel.  On
  real hardware the cycle-granular TSC makes PEBS↔PT alignment effectively
  exact; our simulated clock ticks once per *instruction*, so without the
  side channel the alignment would be artificially ambiguous.  The side
  channel restores the hardware's effective precision without charging
  bytes for it.

Code-region filtering (§4.2: the PT hardware offers four address range
filters; ProRace monitors only the main executable) is supported via
``PTConfig.filters``.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..machine.observers import MachineObserver

#: Bytes per packet kind in the packed format.
TIP_BYTES = 5
MTC_BYTES = 2
PSB_BYTES = 16
#: Conditional-branch outcomes per packed TNT byte.
TNT_BITS_PER_BYTE = 6
#: Depth of the hardware return-compression stack.
RET_STACK_DEPTH = 64


class PacketKind(enum.Enum):
    """A packet's kind.  Its value is the kind's code in a stream's
    ``kinds`` column and in the container's packet records."""

    TIP = 0  # indirect branch / uncompressed ret / trace start target
    TNT = 1  # one conditional-branch outcome or compressed-ret bit
    END = 2  # tracing stops for this thread (TIP.PGD)
    OVF = 3  # aux-buffer overflow: a span of packets was lost


#: The kind codes, as the ``kinds`` column holds them.
TIP, TNT, END, OVF = (kind.value for kind in PacketKind)


def kind_of(code: int) -> Optional[PacketKind]:
    """The kind *code* stands for; None for a code that names no kind."""
    try:
        return PacketKind(code)
    except ValueError:
        return None


#: Every code but TNT's becomes a separator, so that splitting a kinds
#: column on it leaves the runs of TNT bits between the other packets.
_TNT_RUNS = bytes(ord("t") if code == TNT else ord("|")
                  for code in range(256))
#: Values above this do not fit a signed 64-bit column.
_MAX_WORD = (1 << 63) - 1


@dataclass(frozen=True)
class PTConfig:
    """PT programming.

    Args:
        filters: up to four ``(lo, hi)`` half-open code-address ranges to
            trace; empty means trace everything (whole program).
        mtc_period: cycles between MTC timing packets (size accounting).
        psb_period: packets between PSB sync packets (size accounting).
        ret_compression: model the hardware return stack (compressed RETs
            cost one TNT bit instead of a TIP packet).
    """

    filters: Tuple[Tuple[int, int], ...] = ()
    mtc_period: int = 4096
    psb_period: int = 1024
    ret_compression: bool = True

    def __post_init__(self) -> None:
        if len(self.filters) > 4:
            raise ValueError("PT supports at most four address filters")

    def in_region(self, ip: int) -> bool:
        if not self.filters:
            return True
        return any(lo <= ip < hi for lo, hi in self.filters)


@dataclass
class PTThreadTrace:
    """The packet stream of one thread, as three parallel columns.

    Packet *i* is ``(kinds[i], tscs[i], values[i])``:

    * ``kinds``: the :class:`PacketKind` code.  A code that names no
      kind (the container rejects it) stands for a packet of no kind,
      which the decoder reports as ``None``;
    * ``tscs``: the packet's timestamp.  Signed, because clock faults
      can push a timestamp below zero;
    * ``values``: a TNT packet's bit (0 or 1), a TIP packet's target,
      an OVF packet's gap end (the timestamp of the last lost packet;
      an OVF whose gap end is its own TSC lost a single instant), and 0
      for END.

    Once a bundle holds a stream, nothing changes its columns: the
    transforms below build new ones.
    """

    tid: int
    start_ip: int
    start_tsc: int
    kinds: array = field(default_factory=partial(array, "B"))
    tscs: array = field(default_factory=partial(array, "q"))
    values: array = field(default_factory=partial(array, "q"))
    end_tsc: Optional[int] = None
    #: True if a region filter suppressed one or more branch packets; the
    #: decoder cannot follow control flow past the first gap.
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.kinds)

    def size_bytes(self, config: PTConfig) -> int:
        """On-wire bytes of this stream in the packed format."""
        # Every packet but a TNT bit costs a TIP's bytes and closes the
        # run of TNT bits before it, which packs six bits to a byte.
        runs = self.kinds.tobytes().translate(_TNT_RUNS).split(b"|")
        others = len(runs) - 1
        tnt_bytes = sum(-(-len(run) // TNT_BITS_PER_BYTE) for run in runs)
        total = PSB_BYTES + TIP_BYTES + tnt_bytes + others * TIP_BYTES
        packet_count = 2 + tnt_bytes + others  # + initial PSB and TIP
        # Timing and sync packets.
        if self.end_tsc is not None and config.mtc_period > 0:
            elapsed = max(0, self.end_tsc - self.start_tsc)
            total += MTC_BYTES * (elapsed // config.mtc_period)
        if config.psb_period > 0:
            total += PSB_BYTES * (packet_count // config.psb_period)
        return total

    def with_gap(self, start: int, stop: int) -> "PTThreadTrace":
        """This stream with packets ``start`` to ``stop - 1`` lost to one
        OVF marker: it takes the first lost packet's TSC, and the last
        one's is its gap end."""
        tscs = self.tscs
        return replace(
            self,
            kinds=self.kinds[:start] + array("B", (OVF,))
            + self.kinds[stop:],
            tscs=tscs[:start] + array("q", (tscs[start],)) + tscs[stop:],
            values=self.values[:start] + array("q", (tscs[stop - 1],))
            + self.values[stop:],
        )

    def retimed(self, clock: Callable[[int], int],
                packet_clock: Optional[Callable[[int], int]] = None
                ) -> "PTThreadTrace":
        """This stream with every timestamp mapped through *clock*: its
        start and end, each packet's TSC and each OVF gap end, never a
        TIP target (a code address).  *packet_clock*, when given,
        stands in for *clock* on the packet TSCs; it is called once per
        packet, in stream order."""
        values = self.values
        codes = self.kinds.tobytes()
        ovf = codes.find(OVF)
        if ovf >= 0:
            values = array("q", values)
            while ovf >= 0:
                values[ovf] = clock(values[ovf])
                ovf = codes.find(OVF, ovf + 1)
        return replace(
            self,
            start_tsc=clock(self.start_tsc),
            end_tsc=clock(self.end_tsc) if self.end_tsc is not None
            else None,
            tscs=array("q", map(packet_clock or clock, self.tscs)),
            values=values,
        )


class PTPacketizer(MachineObserver):
    """Machine observer producing per-thread PT packet streams."""

    def __init__(self, config: PTConfig = PTConfig()) -> None:
        self.config = config
        self.traces: Dict[int, PTThreadTrace] = {}
        #: tid -> the appends of its stream's three columns, and its
        #: return-compression stack.
        self._columns: Dict[int, tuple] = {}
        self._filtered = bool(config.filters)
        #: True while the tracing governor sheds PT output (backpressure
        #: tier 2).  Packets produced during a shed are counted, not
        #: stored; each thread's shed span collapses into one OVF marker
        #: — the exact artefact real PT emits on aux-buffer overflow, so
        #: the decoder's existing gap handling applies unchanged.
        self.shedding = False
        #: tid -> [first_tsc, last_tsc, tnt_bits, other_packets].
        self._shed_open: Dict[int, List[int]] = {}
        self._shed_gaps = 0
        self._shed_packets = 0
        self._shed_bytes = 0

    @property
    def packets_emitted(self) -> int:
        """Packets stored across every stream (shed packets excluded)."""
        return sum(len(trace) for trace in self.traces.values())

    # ------------------------------------------------------------------
    # Governor shedding
    # ------------------------------------------------------------------

    def begin_shed(self, tsc: int) -> None:
        """Start discarding packets (one OVF marker per affected thread
        when the shed ends or the thread exits)."""
        if self.shedding:
            return
        self.shedding = True
        self._shed_open = {}

    def end_shed(self, tsc: int) -> Tuple[int, int, int]:
        """Stop shedding; flush every open span.  Returns the interval's
        accounting — ``(ovf_gaps, packets_shed, bytes_shed)`` — including
        spans already flushed by thread exits during the interval."""
        for tid in list(self._shed_open):
            self._flush_shed_span(tid)
        self.shedding = False
        totals = (self._shed_gaps, self._shed_packets, self._shed_bytes)
        self._shed_gaps = self._shed_packets = self._shed_bytes = 0
        return totals

    def _shed_packet(self, tid: int, kind: int, tsc: int) -> None:
        span = self._shed_open.setdefault(tid, [tsc, tsc, 0, 0])
        span[1] = tsc
        if kind == TNT:
            span[2] += 1
        else:
            span[3] += 1
        self._shed_packets += 1

    def _flush_shed_span(self, tid: int) -> None:
        span = self._shed_open.pop(tid, None)
        if span is None:
            return
        first_tsc, last_tsc, tnt_bits, others = span
        self._append(tid, OVF, first_tsc, last_tsc)
        self._shed_gaps += 1
        self._shed_bytes += (
            -(-tnt_bits // TNT_BITS_PER_BYTE) + others * TIP_BYTES
        )

    # ------------------------------------------------------------------

    def _append(self, tid: int, kind: int, tsc: int, value: int) -> None:
        kinds, tscs, values, _stack = self._columns[tid]
        kinds(kind)
        tscs(tsc)
        values(value)

    def on_thread_start(self, tsc: int, tid: int, core: int, ip: int) -> None:
        trace = self.traces[tid] = PTThreadTrace(
            tid=tid, start_ip=ip, start_tsc=tsc)
        self._columns[tid] = (trace.kinds.append, trace.tscs.append,
                              trace.values.append, [])

    def on_thread_exit(self, tsc: int, tid: int) -> None:
        if self.shedding:
            # The OVF marker must precede END in the stream.
            self._flush_shed_span(tid)
        self._append(tid, END, tsc, 0)
        self.traces[tid].end_tsc = tsc

    def on_branch(self, tsc: int, tid: int, ip: int, target: int,
                  taken: Optional[bool], conditional: bool,
                  indirect: bool, is_call: bool) -> None:
        if self._filtered and not self.config.in_region(ip):
            self.traces[tid].truncated = True
            return
        if conditional:
            kind, value = TNT, taken
        elif not indirect:
            # Direct jmp/call: statically recoverable, no packet — but the
            # return-compression stack must shadow calls.
            if is_call:
                stack = self._columns[tid][3]
                stack.append(ip + 1)
                if len(stack) > RET_STACK_DEPTH:
                    del stack[0]
            return
        else:
            # Indirect transfer: RET (compressible) or indirect jmp.
            stack = self._columns[tid][3]
            if self.config.ret_compression and stack and stack[-1] == target:
                stack.pop()
                kind, value = TNT, 1
            else:
                kind, value = TIP, target
                if target > _MAX_WORD:
                    # A wild jump, which faults at the next fetch: keep
                    # the address as the signed word of the same bits.
                    value = target - (1 << 64)
        if self.shedding:
            self._shed_packet(tid, kind, tsc)
            return
        kinds, tscs, values, _stack = self._columns[tid]
        kinds(kind)
        tscs(tsc)
        values(value)

    # ------------------------------------------------------------------

    def total_size_bytes(self) -> int:
        return sum(t.size_bytes(self.config) for t in self.traces.values())
