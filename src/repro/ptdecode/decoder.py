"""PT decode: packets + program binary → per-thread instruction paths.

This is the offline "Decode & Synthesis" stage of Figure 1.  Given the
application binary and one thread's packet stream, the decoder re-walks
the program: direct transfers follow statically, conditional branches
consume TNT bits, indirect transfers consume TIP packets, and compressed
returns consume a TNT bit while popping a shadow call stack that exactly
mirrors the packetizer's.

Decode walks a *run* at a time, not an instruction at a time.  Between
two packets the program text alone fixes every step, so the decoder
tabulates, per start address, the instructions up to the next one whose
successor only a packet can tell (a conditional branch, an indirect
jump, a return, a halt), together with the return addresses its direct
calls push; a path then grows by a whole run per packet.  The table is
built lazily by each :func:`decode_thread` call — libipt's block decoder
(``pt_blk_*``) is the production precedent.

The decoded path carries *anchors* — (step index, TSC) pairs, one per
consumed packet — which later stages use to align PEBS samples and sync
records onto exact path positions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# DecodeError lives in the shared taxonomy now (so the CLI can map it to
# its documented exit code without importing the decoder) but remains
# importable from here, its historical home.
from ..errors import DecodeError
from ..isa.instructions import COND_BRANCHES, Op
from ..isa.program import Program
from ..pmu.pt import END, OVF, PTConfig, PTThreadTrace, TIP, TNT, kind_of
from ..pmu.records import PEBSSample, SyncRecord


#: How a run ends.  The first three end on a branch that consumes one
#: packet; the rest end on a halt or without reaching a packet at all.
_COND, _RET, _IJMP, _HALT, _FILTERED, _OFF, _CALL, _CYCLE = range(8)


def _run_from(program: Program, ip: int, config: Optional[PTConfig]
              ) -> Tuple[tuple, tuple, int, float, object]:
    """The run decode walks from *ip*: ``(steps, pushes, kind, budget,
    detail)``.

    *steps* follows fall-throughs, direct jumps and direct calls up to
    and including the first instruction whose successor only a packet
    can tell (*kind* ``_COND``, ``_RET``, ``_IJMP``) or the first halt
    (``_HALT``); *pushes* are the return addresses its calls push, in
    order.  A run also ends before a packet branch that *config*'s
    filters kept out of the trace (``_FILTERED``: the branch is not a
    step), where control leaves the program (``_OFF``; *detail* is the
    ip), at a call with no target (``_CALL``; *detail* is the call,
    which is the last step) and where a direct transfer revisits one of
    its addresses (``_CYCLE``: no packet can ever leave the loop).  For
    ``_COND``, *detail* is the taken target, or None when the branch
    has no target.

    *budget* is how many steps the run counts against ``max_steps``
    before decode acts on its end, counting the filtered branch, the
    off-program ip and a cycle's endless steps the way a step-by-step
    walk would reach them.
    """
    instructions = program.instructions
    size = len(instructions)
    steps: List[int] = []
    pushes: List[int] = []
    seen = set()
    while 0 <= ip < size:
        if ip in seen:
            return (), (), _CYCLE, float("inf"), None
        seen.add(ip)
        steps.append(ip)
        ins = instructions[ip]
        op = ins.op
        if op is Op.JMP and ins.target is not None:
            ip = program.target_address(ins)
            continue
        if op is Op.CALL:
            pushes.append(ip + 1)
            if ins.target is None:
                return tuple(steps), tuple(pushes), _CALL, len(steps), ins
            ip = program.target_address(ins)
            continue
        if op is Op.HALT:
            return tuple(steps), tuple(pushes), _HALT, len(steps), None
        if op in COND_BRANCHES:
            kind = _COND
        elif op is Op.RET:
            kind = _RET
        elif op is Op.JMP:
            kind = _IJMP
        else:
            ip += 1
            continue
        if config is not None and config.filters \
                and not config.in_region(ip):
            # The packetizer never recorded this branch; control flow
            # past it is unknown.
            steps.pop()
            return tuple(steps), (), _FILTERED, len(steps) + 1, None
        detail = None
        if kind == _COND and ins.target is not None:
            detail = program.target_address(ins)
        return tuple(steps), tuple(pushes), kind, len(steps), detail
    return tuple(steps), tuple(pushes), _OFF, len(steps) + 1, ip


#: Sentinel gap end: the stream never resynchronized after the gap.
GAP_OPEN = float("inf")


@dataclass
class DecodedPath:
    """One thread's reconstructed execution path.

    Attributes:
        tid: thread id.
        steps: executed instruction addresses, in order.
        anchors: ``(step_index, tsc)`` pairs with *exact* timestamps,
            sorted by step index: the start of the path, every consumed
            branch packet, and the end of trace.
        complete: False when a PT region filter or an unrecoverable OVF
            gap truncated decode.
        gap_ranges: TSC spans ``[lo, hi)`` where control flow is unknown
            (OVF gaps, desync windows).  :meth:`locate` refuses to place
            events inside them — attribution there would be a guess.
        segment_starts: step indices where decode resynchronized after a
            gap.  State (registers, program map, straight-line adjacency)
            must never be carried across these boundaries.
        ovf_gaps: OVF packets consumed — the count the degradation
            report reconciles against the injected fault plan.
    """

    tid: int
    steps: List[int]
    anchors: List[Tuple[int, int]]
    complete: bool = True
    gap_ranges: List[Tuple[int, float]] = field(default_factory=list)
    segment_starts: List[int] = field(default_factory=list)
    ovf_gaps: int = 0

    def _anchor_tsc_index(self) -> List[int]:
        """Anchor TSCs as a flat sorted array, built once per path.

        Anchors are frozen by the time queries start (decode fills them,
        alignment reads them), so both lazy indices are safe to build on
        first use and never invalidated.
        """
        tscs = self._tsc_index
        if tscs is None:
            tscs = [a[1] for a in self.anchors]
            self._tsc_index = tscs
        return tscs

    def _occurrences(self, ip: int) -> Optional[List[int]]:
        """Sorted step indices executing *ip*, built once per path."""
        index = self._ip_index
        if index is None:
            index = {}
            for j, step_ip in enumerate(self.steps):
                index.setdefault(step_ip, []).append(j)
            self._ip_index = index
        return index.get(ip)

    def placement_ambiguous(self, ip: int, tsc: int,
                            tolerance: float) -> bool:
        """Could *ip* locate to a different step anywhere in
        ``[tsc - tolerance, tsc + tolerance]``?

        Clock reconciliation asks this before trusting a sample as a
        reconstruction seed: a timestamp only known to ± *tolerance*
        that could pin to several loop iterations would seed replay
        with the wrong register state and fabricate accesses that
        never executed.  Also true when the widened interval touches a
        gap — the sample may belong to undecoded steps.
        """
        for gap_lo, gap_hi in self.gap_ranges:
            if gap_lo < tsc + tolerance and tsc - tolerance < gap_hi:
                return True
        lo = self.segment_for_tsc(tsc - tolerance)[0]
        hi = self.segment_for_tsc(tsc + tolerance)[1]
        occurrences = self._occurrences(ip) or []
        left = bisect.bisect_left(occurrences, max(lo, 0))
        right = bisect.bisect_right(
            occurrences, min(hi, len(self.steps) - 1)
        )
        return right - left > 1

    def next_occurrence(self, ip: int, start: int = 0) -> Optional[int]:
        """First step index ``>= start`` executing *ip*, located by
        program order alone — no timestamp windowing.  Clock
        reconciliation pins a thread's seq-ordered sync records onto
        the path this way (:meth:`locate`'s TSC window is exactly what
        a clock-damaged record lies about)."""
        occurrences = self._occurrences(ip)
        if not occurrences:
            return None
        pos = bisect.bisect_left(occurrences, start)
        if pos == len(occurrences):
            return None
        return occurrences[pos]

    def segment_for_tsc(self, tsc: int) -> Tuple[int, int]:
        """Step-index range ``(lo, hi)`` that executed in the anchor
        window containing *tsc* (half-open on the left: steps with index
        in ``(lo, hi]`` executed at TSCs in ``(anchor_lo, anchor_hi]``).
        """
        tscs = self._anchor_tsc_index()
        pos = bisect.bisect_left(tscs, tsc)
        if pos == 0:
            return (-1, self.anchors[0][0])
        if pos == len(self.anchors):
            return (self.anchors[-1][0], len(self.steps) - 1)
        return (self.anchors[pos - 1][0], self.anchors[pos][0])

    def locate(self, ip: int, tsc: int) -> Optional[int]:
        """Find the unique step index where *ip* executed at *tsc*.

        Returns None if the ip does not occur in the TSC's anchor window
        (e.g. the event predates the traced region) or if the TSC falls
        inside a gap: steps there were never decoded, so any placement
        would be fabricated.  If the window holds several occurrences —
        impossible unless control flow revisits an address without any
        packet-emitting branch in between — the first is returned and
        :attr:`ambiguous` is incremented.
        """
        for gap_lo, gap_hi in self.gap_ranges:
            if gap_lo <= tsc < gap_hi:
                return None
        lo, hi = self.segment_for_tsc(tsc)
        occurrences = self._occurrences(ip)
        if not occurrences:
            return None
        left = bisect.bisect_left(occurrences, max(lo, 0))
        right = bisect.bisect_right(
            occurrences, min(hi, len(self.steps) - 1)
        )
        if left >= right:
            return None
        if right - left > 1:
            self.ambiguous += 1
        return occurrences[left]

    ambiguous: int = 0
    #: Lazy query indices (see :meth:`_anchor_tsc_index`).
    _tsc_index: Optional[List[int]] = field(
        default=None, repr=False, compare=False)
    _ip_index: Optional[Dict[int, List[int]]] = field(
        default=None, repr=False, compare=False)


def decode_thread(
    program: Program,
    trace: PTThreadTrace,
    config: Optional[PTConfig] = None,
    max_steps: int = 50_000_000,
    samples: Optional[Sequence[PEBSSample]] = None,
) -> DecodedPath:
    """Decode one thread's packet stream into its execution path.

    When *config* carries address filters, decode stops at the first
    branch outside the filtered regions (its packet was never recorded,
    so control flow past it is unknown) and the path is marked incomplete.

    When the stream carries OVF gap markers (aux-buffer overflow — see
    :mod:`repro.faults`), decode resynchronizes at the first of this
    thread's *samples* past the gap: a PEBS record carries the exact ip
    and register file at a known TSC, which is precisely a new decode
    entry point.  Without samples to resynchronize on, the path simply
    ends at the gap and is marked incomplete — degraded, never wrong.

    The path grows a run at a time (see :func:`_run_from`): one loop
    iteration per consumed packet, not per instruction.  The call
    tabulates each run the first time decode reaches its start address.
    A direct-transfer cycle, which no packet can leave, fails with the
    step-budget error at once.
    """
    steps: List[int] = []
    anchors: List[Tuple[int, int]] = []
    gap_ranges: List[Tuple[int, float]] = []
    segment_starts: List[int] = []
    shadow_stack: List[int] = []
    kinds, tscs, values = trace.kinds, trace.tscs, trace.values
    n_packets = len(kinds)
    cursor = 0
    ip = trace.start_ip
    complete = True
    ovf_gaps = 0
    runs: Dict[int, tuple] = {}  # start ip -> _run_from(...)

    sample_list = sorted(samples or (), key=lambda s: s.tsc)
    sample_tscs = [s.tsc for s in sample_list]

    def resync(gap_start: int, gap_end: int) -> bool:
        """Re-enter decode at the first sample past a lost span.

        Records the gap, fast-forwards past packets whose position in the
        program is unknowable (they describe control flow between the gap
        and the resync point), clears the shadow stack (its pre-gap
        frames no longer correspond to the packetizer's), and restarts
        decode at the sample's authoritative ip.  Returns False when no
        sample exists past the gap — the caller must end the path.
        """
        nonlocal ip, complete, cursor, ovf_gaps
        pos = bisect.bisect_right(sample_tscs, gap_end)
        if pos >= len(sample_list):
            gap_ranges.append((gap_start, GAP_OPEN))
            complete = False
            return False
        sample = sample_list[pos]
        gap_ranges.append((gap_start, sample.tsc))
        while cursor < n_packets:
            stale = kinds[cursor]
            if stale == OVF:
                # A second gap before the resync point: swallow it into
                # this one (its span is already inside the skip window).
                ovf_gaps += 1
                cursor += 1
                continue
            if tscs[cursor] >= sample.tsc:
                break
            cursor += 1
            if stale == END:
                # The thread exited before the resync point was reached.
                gap_ranges[-1] = (gap_start, GAP_OPEN)
                complete = False
                return False
        shadow_stack.clear()
        segment_starts.append(len(steps))
        anchors.append((len(steps), sample.tsc))
        ip = sample.ip
        return True

    while True:
        run = runs.get(ip)
        if run is None:
            run = runs[ip] = _run_from(program, ip, config)
        run_steps, pushes, kind, budget, detail = run
        if len(steps) + budget > max_steps:
            raise DecodeError(f"decode exceeded {max_steps} steps")
        steps += run_steps
        if pushes:
            shadow_stack += pushes

        if kind <= _IJMP:
            # The run's last step is a branch that consumes one packet
            # (None: the stream has ended).
            if cursor < n_packets:
                packet = kinds[cursor]
                tsc, value = tscs[cursor], values[cursor]
                cursor += 1
            else:
                packet = None
            if packet == OVF:
                # This branch executed (its packet is the first lost
                # one) but its outcome is gone: anchor it at the gap
                # start and resynchronize past the lost span, which
                # ends at the packet's value.
                ovf_gaps += 1
                anchors.append((len(steps) - 1, tsc))
                if resync(tsc, value):
                    continue
                break

            if kind == _COND:
                if packet == TNT:
                    anchors.append((len(steps) - 1, tsc))
                    if not value:
                        ip = run_steps[-1] + 1
                    elif detail is not None:
                        ip = detail
                    else:
                        ip = program.target_address(program[run_steps[-1]])
                    continue
                if packet is None or gap_ranges:
                    # The trace ended mid-flight (filtered or torn
                    # stream), or a post-gap desync: degrade to a
                    # truncated path instead of failing the whole thread.
                    steps.pop()
                    complete = False
                    break
                raise DecodeError("expected TNT for conditional branch")

            if kind == _RET:
                if packet is None:
                    # Thread-exit return (to the bottom-of-stack sentinel).
                    break
                anchors.append((len(steps) - 1, tsc))
                if packet == END:
                    break
                if packet == TNT:
                    if not value:
                        if gap_ranges:
                            complete = False
                            break
                        raise DecodeError(
                            "compressed-ret TNT bit must be taken")
                    if not shadow_stack:
                        # Post-gap: the packetizer compressed this return
                        # against a pre-gap frame the resync discarded.
                        # The return target is unknowable — resynchronize
                        # again at the next sample past this point.
                        if gap_ranges and resync(tsc, tsc):
                            continue
                        if gap_ranges:
                            complete = False
                            break
                        raise DecodeError(
                            "compressed ret with empty call stack")
                    ip = shadow_stack.pop()
                    continue
                if packet == TIP:
                    ip = value
                    continue
                if gap_ranges:
                    complete = False
                    break
                raise DecodeError(
                    f"unexpected packet at ret: {kind_of(packet)}")

            # An indirect jmp.
            if packet == TIP:
                anchors.append((len(steps) - 1, tsc))
                ip = value
                continue
            if gap_ranges:
                steps.pop()
                complete = False
                break
            raise DecodeError("expected TIP for indirect jmp")

        if kind == _HALT:
            if cursor == n_packets:
                break
            packet = kinds[cursor]
            if packet == OVF:
                # The gap swallowed this thread's END packet; the halt
                # itself was reached deterministically, so the path is
                # intact — only the exact end timestamp is lost.
                ovf_gaps += 1
                gap_ranges.append((tscs[cursor], GAP_OPEN))
                anchors.append((len(steps) - 1, values[cursor]))
                break
            if packet != END:
                raise DecodeError(
                    f"expected END at halt, got {kind_of(packet)}")
            anchors.append((len(steps) - 1, tscs[cursor]))
            break

        if kind == _FILTERED:
            complete = False
            break
        if kind == _OFF:
            if gap_ranges:
                complete = False
                break
            raise DecodeError(f"decoded ip {detail} out of program range")
        if kind == _CALL:
            # Resolving a call that has no target raises ProgramError.
            ip = program.target_address(detail)
            continue
        # _CYCLE: no packet can leave the loop, so decode can only run
        # out of steps (the budget check above raises first for any
        # finite max_steps).
        raise DecodeError(f"decode exceeded {max_steps} steps")

    path = DecodedPath(
        tid=trace.tid, steps=steps, anchors=anchors, complete=complete,
        gap_ranges=gap_ranges, segment_starts=segment_starts,
        ovf_gaps=ovf_gaps,
    )
    if not anchors or anchors[0][0] != 0:
        path.anchors = [(0, trace.start_tsc)] + path.anchors
    return path


def decode_all(
    program: Program,
    traces: Dict[int, PTThreadTrace],
    config: Optional[PTConfig] = None,
    samples: Optional[Dict[int, Sequence[PEBSSample]]] = None,
) -> Dict[int, DecodedPath]:
    """Decode every thread's stream, in tid order.

    *samples* (per-tid PEBS samples) enables OVF gap resynchronization;
    without it a gapped stream simply truncates at its first gap.
    """
    sample_map = samples or {}
    return {
        tid: decode_thread(program, traces[tid], config=config,
                           samples=sample_map.get(tid))
        for tid in sorted(traces)
    }


def decode_all_tolerant(
    program: Program,
    traces: Dict[int, PTThreadTrace],
    config: Optional[PTConfig] = None,
    samples: Optional[Dict[int, Sequence[PEBSSample]]] = None,
) -> Tuple[Dict[int, DecodedPath], Dict[int, str]]:
    """Decode every thread, isolating per-thread failures.

    Returns ``(paths, failures)``: one undecodable stream yields an
    entry in *failures* (tid → reason) and a skipped thread, not a dead
    analysis.  Gap resynchronization still applies via *samples*.
    """
    sample_map = samples or {}
    paths: Dict[int, DecodedPath] = {}
    failures: Dict[int, str] = {}
    for tid in sorted(traces):
        try:
            paths[tid] = decode_thread(program, traces[tid], config=config,
                                       samples=sample_map.get(tid))
        except Exception as error:
            failures[tid] = f"{type(error).__name__}: {error}"
    return paths, failures


@dataclass(frozen=True)
class AlignedSample:
    """A PEBS sample pinned to its exact position in the decoded path."""

    sample: PEBSSample
    step_index: int


def align_samples(
    path: DecodedPath, samples: Sequence[PEBSSample],
    tolerance: float = 0.0,
) -> List[AlignedSample]:
    """Pin each sample of this thread onto the decoded path.

    Samples that cannot be located (trace truncation) are skipped — the
    corresponding reconstruction opportunity is simply lost, matching how
    a torn trace degrades gracefully in the real system.

    With a *tolerance* (the clock model's uncertainty half-width under
    reconciliation), samples whose placement is ambiguous within
    ±tolerance are skipped too: an uncertain timestamp that could pin
    to several path positions must cost reconstruction opportunity,
    never seed replay at the wrong one.
    """
    aligned = []
    for sample in sorted(samples, key=lambda s: s.tsc):
        index = path.locate(sample.ip, sample.tsc)
        if index is None:
            continue
        if tolerance > 0.0 and path.placement_ambiguous(
                sample.ip, sample.tsc, tolerance):
            continue
        aligned.append(AlignedSample(sample=sample, step_index=index))
    return aligned


def locate_syncs(
    path: DecodedPath, records: Sequence[SyncRecord]
) -> List[Tuple[SyncRecord, int]]:
    """Pin each sync record of this thread onto the decoded path.

    Fork/join records emitted on behalf of a blocked thread when its
    wake-up arrives (lock hand-off, join completion) carry the ip of the
    blocking instruction and its original step position.
    """
    located = []
    for record in sorted(records, key=lambda r: (r.tsc, r.seq)):
        index = path.locate(record.ip, record.tsc)
        if index is not None:
            located.append((record, index))
    return located
