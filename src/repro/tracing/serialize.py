"""Binary trace-file serialization.

The paper's deployment model (§3) has production machines write traces
to files that dedicated analysis machines consume later (and delete
after processing).  This module defines that artefact: a versioned,
checksummed binary container for everything the offline stage needs —
PEBS samples, PT packet streams, synchronization/allocation logs, and
run metadata.  The format is this reproduction's own (not perf.data
compatible; see DESIGN.md §6), but it is a real on-disk format: fixed
little-endian layouts, sectioned, with a CRC32 trailer.

Layout::

    header:   magic "PRTR", u16 version, u16 flags, u32 section_count
    section*: v1: u32 kind, u64 payload_bytes, payload
              v2: u32 kind, u64 payload_bytes, u32 payload_crc32, payload
    trailer:  u32 crc32 of everything before it

Section kinds: 1 = run metadata, 2 = PEBS samples, 3 = PT stream (one
per thread), 4 = sync log, 5 = alloc log, 6 = period epochs (v3),
7 = clock calibration (v4).

Version 2 adds a CRC32 per section so damage can be *localized*:
``read_trace(..., allow_partial=True)`` salvages every intact section of
a corrupted file instead of rejecting the whole trace on the trailer
checksum, recording what was dropped in the bundle's
:class:`~repro.tracing.bundle.TraceDefects`.  Version-1 files remain
fully readable (but carry no per-section CRCs, so they cannot be
salvaged — damage there is unlocalizable by design of the v1 format).

Version 3 adds the **period-epoch section**: the tracing governor's
:class:`~repro.pmu.governor.GovernorReport` header followed by one
record per :class:`~repro.pmu.governor.PeriodEpoch`, so the offline
stage can anchor timelines per epoch and compute detection probability
against the piecewise-variable sampling period.  The write version is
chosen per bundle: a governed bundle writes v3, an ungoverned bundle
keeps writing v2 — its files stay byte-identical to pre-governor builds
and remain readable by older readers.  v1 and v2 files stay fully
readable; a corrupted epoch section salvages away like any other (the
bundle just loses its period history, never its data).

Version 4 adds the **clock-calibration section**: the reconciliation
pass's :class:`~repro.clock.model.ClockModel` — sync-inversion count,
default uncertainty half-width, and one record per per-core affine fit
(offset, scale, residual half-width, anchor count) — so a corrected
trace carries its calibration and downstream consumers never re-estimate
it.  The write version is again chosen per bundle: only a bundle with a
clock model writes v4; an unreconciled bundle keeps writing v3/v2 and
stays byte-identical to pre-clock builds.  v1–v3 files stay fully
readable, and a corrupted clock section salvages away like any other
(the bundle just loses its calibration; reconciliation re-estimates it
from the sync log).
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import pickle
import struct
import zlib
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError, TraceError
from ..isa.registers import ALL_REGISTERS
from ..machine.machine import RunResult
from ..pmu.drivers import DriverAccounting, PRORACE_DRIVER, VANILLA_DRIVER
from ..pmu.governor import EPOCH_REASONS, GovernorReport, PeriodEpoch
from ..pmu.pt import PTConfig, PTThreadTrace, PacketKind
from ..pmu.records import (
    ALLOC_RECORD_BYTES,
    AllocRecord,
    PEBSSample,
    SYNC_RECORD_BYTES,
    SyncRecord,
)
from .bundle import TraceBundle, TraceDefects

MAGIC = b"PRTR"
#: Current format version: v4 adds the clock-calibration section (v3
#: the period-epoch section).  Unreconciled ungoverned bundles still
#: *write* v2 (see :func:`write_trace`) so their files are
#: byte-identical to pre-governor builds.
VERSION = 4
SUPPORTED_VERSIONS = (1, 2, 3, 4)

_SEC_META = 1
_SEC_PEBS = 2
_SEC_PT = 3
_SEC_SYNC = 4
_SEC_ALLOC = 5
_SEC_EPOCHS = 6
_SEC_CLOCK = 7

_SECTION_NAMES = {
    _SEC_META: "meta", _SEC_PEBS: "pebs", _SEC_PT: "pt",
    _SEC_SYNC: "sync", _SEC_ALLOC: "alloc", _SEC_EPOCHS: "epochs",
    _SEC_CLOCK: "clock",
}

_HEADER = struct.Struct("<4sHHI")
_SECTION = struct.Struct("<IQ")
_SECTION_V2 = struct.Struct("<IQI")
#: PEBS sample: tsc, tid, core, ip, address, flags + 17 registers.
_SAMPLE = struct.Struct("<QIIQQI" + "Q" * len(ALL_REGISTERS))
#: Sync record: tsc, seq, tid, ip, kind, target.
_SYNC = struct.Struct("<QQIQBQ")
#: Alloc record: tsc, tid, ip, kind, address, size.
_ALLOC = struct.Struct("<QIQBQQ")
#: PT packet: kind, tsc, value (TNT bit, TIP target or OVF gap end).
_PACKET = struct.Struct("<BQQ")
#: PT stream header: tid, start_ip, start_tsc, end_tsc(+1), truncated,
#: packet count.
_PT_HEADER = struct.Struct("<IQQQBQ")
#: Run metadata: the RunResult counters + driver id.
_META = struct.Struct("<QQQQQIQQB")
#: Governor report header (v3 epoch section): overhead_budget, then the
#: counter block (base_period .. final_period), final_tier,
#: final_overhead, epoch count.
_GOV_HEADER = struct.Struct("<d" + "Q" * 15 + "Bd" + "Q")
#: One period epoch: start_tsc, period, tier, reason id, overhead.
_EPOCH = struct.Struct("<QQBBd")
#: Clock calibration header (v4): fit count, sync-inversion count,
#: default uncertainty half-width.
_CLOCK_HEADER = struct.Struct("<IId")
#: One per-core clock fit: core, offset, scale, half_width, anchors.
_CLOCK_FIT = struct.Struct("<IdddQ")

#: Sync kinds are index-encoded on the wire: append-only, never reorder
#: (older readers reject unknown indices, not shifted meanings).
_SYNC_KINDS = ("lock", "unlock", "sem_post", "sem_wait",
               "cond_signal", "cond_wake", "fork", "join",
               "rwlock_rd", "rwlock_wr", "rwlock_unlock",
               "barrier_arrive", "barrier_wait")
_ALLOC_KINDS = ("malloc", "free")
#: Packet records carry a stream's column values as they are, the kind
#: as its :class:`~repro.pmu.pt.PacketKind` code.  OVF (code 3) appears
#: only in degraded streams; v1 writers never emitted it, so accepting
#: it on read keeps v1 compatibility intact.
_PACKET_CODES = bytes(kind.value for kind in PacketKind)


class TraceFormatError(TraceError):
    """Raised on malformed or corrupted trace files."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _write_section(out: io.BytesIO, kind: int, payload: bytes,
                   version: int = VERSION) -> None:
    if version >= 2:
        out.write(_SECTION_V2.pack(kind, len(payload),
                                   zlib.crc32(payload)))
    else:
        out.write(_SECTION.pack(kind, len(payload)))
    out.write(payload)


def _encode_samples(samples: List[PEBSSample]) -> bytes:
    chunks = []
    for sample in samples:
        registers = tuple(
            sample.registers.get(name, 0) for name in ALL_REGISTERS
        )
        chunks.append(
            _SAMPLE.pack(
                sample.tsc, sample.tid, sample.core, sample.ip,
                sample.address, int(sample.is_store), *registers,
            )
        )
    return b"".join(chunks)


def _encode_pt(trace: PTThreadTrace) -> bytes:
    if trace.kinds.tobytes().translate(None, _PACKET_CODES):
        raise ValueError(f"thread {trace.tid}: a packet of no kind")
    end_tsc = 0 if trace.end_tsc is None else trace.end_tsc + 1
    header = _PT_HEADER.pack(
        trace.tid, trace.start_ip, trace.start_tsc, end_tsc,
        int(trace.truncated), len(trace),
    )
    return header + b"".join(
        map(_PACKET.pack, trace.kinds, trace.tscs, trace.values))


def _encode_sync(records: List[SyncRecord]) -> bytes:
    return b"".join(
        _SYNC.pack(r.tsc, r.seq, r.tid, r.ip, _SYNC_KINDS.index(r.kind),
                   r.target)
        for r in records
    )


def _encode_alloc(records: List[AllocRecord]) -> bytes:
    return b"".join(
        _ALLOC.pack(r.tsc, r.tid, r.ip, _ALLOC_KINDS.index(r.kind),
                    r.address, r.size)
        for r in records
    )


def _encode_epochs(bundle: TraceBundle) -> bytes:
    report = bundle.governor or GovernorReport()
    epochs = bundle.period_epochs
    out = io.BytesIO()
    out.write(_GOV_HEADER.pack(
        report.overhead_budget, report.base_period, report.k_min,
        report.k_max, report.decisions, report.widenings,
        report.narrowings, report.tier_transitions, report.pt_sheds,
        report.pt_bytes_shed, report.pt_packets_shed,
        report.hard_drop_bursts, report.hard_dropped_samples,
        report.watchdog_trips, report.sync_stalls, report.final_period,
        report.final_tier, report.final_overhead, len(epochs),
    ))
    for epoch in epochs:
        try:
            reason_id = EPOCH_REASONS.index(epoch.reason)
        except ValueError:
            reason_id = 0
        out.write(_EPOCH.pack(epoch.start_tsc, epoch.period, epoch.tier,
                              reason_id, epoch.overhead))
    return out.getvalue()


def _encode_clock(model) -> bytes:
    out = io.BytesIO()
    out.write(_CLOCK_HEADER.pack(len(model.fits), model.inversions,
                                 model.default_half_width))
    for fit in model.fits:
        out.write(_CLOCK_FIT.pack(fit.core, fit.offset, fit.scale,
                                  fit.half_width, fit.anchors))
    return out.getvalue()


def _encode_meta(bundle: TraceBundle) -> bytes:
    run = bundle.run
    driver_id = 1 if bundle.pebs_accounting.driver.name == "prorace" else 0
    return _META.pack(
        run.tsc, run.instructions, run.memory_ops, run.branches,
        run.sync_ops, run.threads, run.io_cycles, run.idle_cycles,
        driver_id,
    )


def _section(kind: int, encode, value,
             label: str = "") -> Tuple[int, bytes]:
    """``(kind, encode(value))``, with a field the section's fixed
    layout cannot hold raised as the writer's ``ValueError`` naming the
    section instead of a bare ``struct.error``."""
    try:
        return kind, encode(value)
    except struct.error as error:
        raise ValueError(f"{_SECTION_NAMES[kind]} section{label}: a field "
                         f"out of its range ({error})") from error


def trace_to_bytes(bundle: TraceBundle,
                   version: Optional[int] = None) -> bytes:
    """Serialize *bundle* to its on-disk container bytes.

    The exact bytes :func:`write_trace` would put on disk, for callers
    that keep a container in memory (:func:`read_trace_bytes` reads it
    back).

    Timestamps must be non-negative: every timestamp field of the
    container is unsigned.  Clock faults can push a bundle's timestamps
    below zero; such a bundle raises ``ValueError`` naming the section,
    as does an unsupported *version* or a PT packet of no kind.
    """
    governed = bool(bundle.period_epochs) or bundle.governor is not None
    clocked = bundle.clock is not None
    if version is None:
        version = 4 if clocked else 3 if governed else 2
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported write version {version}")
    body = io.BytesIO()
    sections: List[Tuple[int, bytes]] = [
        _section(_SEC_META, _encode_meta, bundle),
        _section(_SEC_PEBS, _encode_samples, bundle.samples),
        _section(_SEC_SYNC, _encode_sync, bundle.sync_records),
        _section(_SEC_ALLOC, _encode_alloc, bundle.alloc_records),
    ]
    for tid in sorted(bundle.pt_traces):
        sections.append(_section(_SEC_PT, _encode_pt,
                                 bundle.pt_traces[tid], f" (thread {tid})"))
    if version >= 3 and governed:
        sections.append(_section(_SEC_EPOCHS, _encode_epochs, bundle))
    if version >= 4 and clocked:
        sections.append(_section(_SEC_CLOCK, _encode_clock, bundle.clock))
    body.write(_HEADER.pack(MAGIC, version, 0, len(sections)))
    for kind, payload in sections:
        _write_section(body, kind, payload, version=version)
    blob = body.getvalue()
    return blob + struct.pack("<I", zlib.crc32(blob))


def write_trace(bundle: TraceBundle, path: Path | str,
                version: Optional[int] = None) -> int:
    """Serialize *bundle* to *path*; returns the bytes written.

    The ground-truth oracle (when present) is intentionally *not*
    serialized: a real trace file cannot contain it.  *version* selects
    the container format; the default picks per bundle — v4 when the
    bundle carries a clock calibration, v3 when it carries period
    epochs or a governor report (they need the epoch section), v2
    otherwise, so unreconciled ungoverned trace files stay
    byte-identical to pre-governor builds.  Writing a governed or
    reconciled bundle at a lower version is allowed but drops the
    sections that version cannot carry.
    """
    blob = trace_to_bytes(bundle, version=version)
    Path(path).write_bytes(blob)
    return len(blob)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _decode_samples(payload: bytes) -> List[PEBSSample]:
    if len(payload) % _SAMPLE.size:
        raise TraceFormatError("truncated PEBS section")
    samples = []
    for offset in range(0, len(payload), _SAMPLE.size):
        fields = _SAMPLE.unpack_from(payload, offset)
        tsc, tid, core, ip, address, is_store = fields[:6]
        registers = dict(zip(ALL_REGISTERS, fields[6:]))
        samples.append(
            PEBSSample(
                tsc=tsc, tid=tid, core=core, ip=ip, address=address,
                is_store=bool(is_store), registers=registers,
            )
        )
    return samples


def _decode_pt(payload: bytes) -> PTThreadTrace:
    if len(payload) < _PT_HEADER.size:
        raise TraceFormatError("truncated PT header")
    tid, start_ip, start_tsc, end_tsc, truncated, count = \
        _PT_HEADER.unpack_from(payload, 0)
    expected = _PT_HEADER.size + count * _PACKET.size
    if len(payload) != expected:
        raise TraceFormatError(
            f"PT stream length mismatch: {len(payload)} != {expected}"
        )
    kinds = tscs = values = ()
    if count:
        kinds, tscs, values = zip(
            *_PACKET.iter_unpack(payload[_PT_HEADER.size:]))
    kinds = array("B", kinds)
    bad = kinds.tobytes().translate(None, _PACKET_CODES)
    if bad:
        raise TraceFormatError(f"bad packet kind {bad[0]}")
    try:
        tscs, values = array("q", tscs), array("q", values)
    except OverflowError:
        # The columns are signed; no writer produces a field this large.
        raise TraceFormatError("PT packet field out of range") from None
    return PTThreadTrace(
        tid=tid, start_ip=start_ip, start_tsc=start_tsc, kinds=kinds,
        tscs=tscs, values=values,
        end_tsc=None if end_tsc == 0 else end_tsc - 1,
        truncated=bool(truncated),
    )


def _decode_sync(payload: bytes) -> List[SyncRecord]:
    if len(payload) % _SYNC.size:
        raise TraceFormatError("truncated sync section")
    records = []
    for offset in range(0, len(payload), _SYNC.size):
        tsc, seq, tid, ip, kind_id, target = _SYNC.unpack_from(
            payload, offset
        )
        try:
            kind = _SYNC_KINDS[kind_id]
        except IndexError:
            raise TraceFormatError(f"bad sync kind {kind_id}") from None
        records.append(
            SyncRecord(tsc=tsc, seq=seq, tid=tid, ip=ip, kind=kind,
                       target=target)
        )
    return records


def _decode_alloc(payload: bytes) -> List[AllocRecord]:
    if len(payload) % _ALLOC.size:
        raise TraceFormatError("truncated alloc section")
    records = []
    for offset in range(0, len(payload), _ALLOC.size):
        tsc, tid, ip, kind_id, address, size = _ALLOC.unpack_from(
            payload, offset
        )
        try:
            kind = _ALLOC_KINDS[kind_id]
        except IndexError:
            raise TraceFormatError(f"bad alloc kind {kind_id}") from None
        records.append(
            AllocRecord(tsc=tsc, tid=tid, ip=ip, kind=kind,
                        address=address, size=size)
        )
    return records


def _decode_epochs(payload: bytes) -> GovernorReport:
    if len(payload) < _GOV_HEADER.size:
        raise TraceFormatError("truncated epoch section header")
    fields = _GOV_HEADER.unpack_from(payload, 0)
    (budget, base_period, k_min, k_max, decisions, widenings, narrowings,
     tier_transitions, pt_sheds, pt_bytes_shed, pt_packets_shed,
     hard_drop_bursts, hard_dropped_samples, watchdog_trips, sync_stalls,
     final_period, final_tier, final_overhead, count) = fields
    expected = _GOV_HEADER.size + count * _EPOCH.size
    if len(payload) != expected:
        raise TraceFormatError(
            f"epoch section length mismatch: {len(payload)} != {expected}"
        )
    epochs: List[PeriodEpoch] = []
    offset = _GOV_HEADER.size
    for _ in range(count):
        start_tsc, period, tier, reason_id, overhead = _EPOCH.unpack_from(
            payload, offset
        )
        offset += _EPOCH.size
        if reason_id >= len(EPOCH_REASONS):
            raise TraceFormatError(f"bad epoch reason id {reason_id}")
        epochs.append(PeriodEpoch(
            start_tsc=start_tsc, period=period, tier=tier,
            reason=EPOCH_REASONS[reason_id], overhead=overhead,
        ))
    return GovernorReport(
        overhead_budget=budget, base_period=base_period, k_min=k_min,
        k_max=k_max, decisions=decisions, widenings=widenings,
        narrowings=narrowings, tier_transitions=tier_transitions,
        pt_sheds=pt_sheds, pt_bytes_shed=pt_bytes_shed,
        pt_packets_shed=pt_packets_shed, hard_drop_bursts=hard_drop_bursts,
        hard_dropped_samples=hard_dropped_samples,
        watchdog_trips=watchdog_trips, sync_stalls=sync_stalls,
        final_period=final_period, final_tier=final_tier,
        final_overhead=final_overhead, epochs=epochs,
    )


def _decode_clock(payload: bytes):
    from ..clock.model import ClockModel, CoreClockFit

    if len(payload) < _CLOCK_HEADER.size:
        raise TraceFormatError("truncated clock section header")
    count, inversions, default_half_width = _CLOCK_HEADER.unpack_from(
        payload, 0
    )
    expected = _CLOCK_HEADER.size + count * _CLOCK_FIT.size
    if len(payload) != expected:
        raise TraceFormatError(
            f"clock section length mismatch: {len(payload)} != {expected}"
        )
    # NaN compares false with everything, so every range check below
    # asks for a finite value as well.
    if not (math.isfinite(default_half_width) and default_half_width >= 0.0):
        raise TraceFormatError(
            f"bad clock default half-width {default_half_width}")
    fits = []
    offset = _CLOCK_HEADER.size
    for _ in range(count):
        core, fit_offset, scale, half_width, anchors = \
            _CLOCK_FIT.unpack_from(payload, offset)
        offset += _CLOCK_FIT.size
        if not (math.isfinite(scale) and scale > 0.0):
            raise TraceFormatError(f"bad clock fit scale {scale}")
        if not math.isfinite(fit_offset):
            raise TraceFormatError(f"bad clock fit offset {fit_offset}")
        if not (math.isfinite(half_width) and half_width >= 0.0):
            raise TraceFormatError(f"bad clock fit half-width {half_width}")
        fits.append(CoreClockFit(
            core=core, offset=fit_offset, scale=scale,
            half_width=half_width, anchors=anchors,
        ))
    return ClockModel(fits=tuple(fits), inversions=inversions,
                      default_half_width=default_half_width)


def _decode_meta(payload: bytes) -> Tuple[RunResult, str]:
    if len(payload) != _META.size:
        raise TraceFormatError("bad metadata section")
    (tsc, instructions, memory_ops, branches, sync_ops, threads,
     io_cycles, idle_cycles, driver_id) = _META.unpack(payload)
    run = RunResult(
        tsc=tsc, instructions=instructions, memory_ops=memory_ops,
        branches=branches, sync_ops=sync_ops, threads=threads,
        io_cycles=io_cycles, idle_cycles=idle_cycles,
    )
    return run, ("prorace" if driver_id else "vanilla")


class SectionEntry:
    """One row of a container's section table: where a payload lives,
    not what it contains.  ``offset``/``length`` index into the blob;
    the payload itself is *not* decoded (or even sliced) until asked."""

    __slots__ = ("index", "kind", "name", "offset", "length", "crc")

    def __init__(self, index: int, kind: int, offset: int, length: int,
                 crc: Optional[int]) -> None:
        self.index = index
        self.kind = kind
        self.name = _SECTION_NAMES.get(kind, f"kind{kind}")
        self.offset = offset
        self.length = length
        self.crc = crc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SectionEntry({self.name}#{self.index} "
                f"@{self.offset}+{self.length})")


class TraceReader:
    """Offset-indexed lazy view of one trace container.

    Construction validates the header and trailer CRC and walks the
    section *table* only — recording each section's kind, offset and
    length without slicing or decoding its payload.  Payloads are
    handed out as :class:`memoryview` slices over the original blob
    (zero-copy; the old reader materialized a ``bytes`` copy of every
    section, a full second copy of the file in aggregate) and decoded
    on first access, so a consumer that needs two of ten sections pays
    for two.  :attr:`sections_decoded` / :attr:`bytes_decoded` count
    what was actually paid.

    :meth:`bundle` reproduces exactly what the eager reader returned —
    same salvage semantics, same defect bookkeeping — with an optional
    *threads* filter that skips decoding PT sections of other threads
    (the per-thread tid is peeked from the stream header in place).
    """

    def __init__(self, data, allow_partial: bool = False) -> None:
        blob = data if isinstance(data, (bytes, bytearray)) else bytes(data)
        if len(blob) < _HEADER.size + 4:
            raise TraceFormatError("file too short")
        magic, version, _flags, section_count = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}")
        if version not in SUPPORTED_VERSIONS:
            raise TraceFormatError(f"unsupported version {version}")
        crc_stored = struct.unpack_from("<I", blob, len(blob) - 4)[0]
        self.blob = blob
        self._view = memoryview(blob)
        self.version = version
        self.file_intact = zlib.crc32(self._view[:-4]) == crc_stored
        self.salvage = allow_partial and version >= 2
        if not self.file_intact and not self.salvage:
            raise TraceFormatError("checksum mismatch (corrupted trace)")

        section_struct = _SECTION_V2 if version >= 2 else _SECTION
        offset = _HEADER.size
        self.sections: List[SectionEntry] = []
        for index in range(section_count):
            if offset + section_struct.size > len(blob) - 4:
                raise TraceFormatError("truncated section table")
            if version >= 2:
                kind, length, payload_crc = section_struct.unpack_from(
                    blob, offset
                )
            else:
                kind, length = section_struct.unpack_from(blob, offset)
                payload_crc = None
            offset += section_struct.size
            if offset + length > len(blob):
                raise TraceFormatError("truncated section payload")
            self.sections.append(
                SectionEntry(index, kind, offset, length, payload_crc)
            )
            offset += length

        self._decoded: Dict[int, object] = {}
        self.sections_decoded = 0
        self.bytes_decoded = 0

    @property
    def total_payload_bytes(self) -> int:
        return sum(entry.length for entry in self.sections)

    def payload(self, entry: SectionEntry) -> memoryview:
        """The raw payload of *entry* — a zero-copy view into the blob."""
        return self._view[entry.offset:entry.offset + entry.length]

    def verify(self, entry: SectionEntry) -> bool:
        """Whether *entry*'s payload survives its CRC.  Free when the
        whole-file trailer already verified (an intact file implies
        intact sections); v1 sections carry no CRC and are only ever
        trusted via the trailer."""
        if self.file_intact or entry.crc is None:
            return self.file_intact
        return zlib.crc32(self.payload(entry)) == entry.crc

    def pt_tid(self, entry: SectionEntry) -> Optional[int]:
        """Peek a PT section's thread id from its stream header without
        decoding the packet payload (the tid is the header's first
        field)."""
        if entry.kind != _SEC_PT or entry.length < _PT_HEADER.size:
            return None
        return _PT_HEADER.unpack_from(self._view, entry.offset)[0]

    def decode(self, entry: SectionEntry):
        """Decode *entry*'s payload (memoized; counted the first time).

        Raises :class:`TraceFormatError` if the payload is inconsistent
        — callers wanting salvage semantics catch it per section, as
        :meth:`bundle` does.
        """
        if entry.index in self._decoded:
            return self._decoded[entry.index]
        payload = self.payload(entry)
        kind = entry.kind
        if kind == _SEC_META:
            value = _decode_meta(payload)
        elif kind == _SEC_PEBS:
            value = _decode_samples(payload)
        elif kind == _SEC_PT:
            value = _decode_pt(payload)
        elif kind == _SEC_SYNC:
            value = _decode_sync(payload)
        elif kind == _SEC_ALLOC:
            value = _decode_alloc(payload)
        elif kind == _SEC_EPOCHS:
            value = _decode_epochs(payload)
        elif kind == _SEC_CLOCK:
            value = _decode_clock(payload)
        else:
            raise TraceFormatError(f"unknown section kind {kind}")
        self._decoded[entry.index] = value
        self.sections_decoded += 1
        self.bytes_decoded += entry.length
        return value

    def bundle(self, program=None,
               threads: Optional[frozenset] = None) -> TraceBundle:
        """Assemble the :class:`TraceBundle` the eager reader produced.

        With *threads*, PT sections of other threads are skipped without
        decoding (their CRCs are still verified in salvage mode, so
        defect bookkeeping for localizable damage is unchanged; a
        CRC-passing-but-inconsistent foreign PT section is only
        diagnosed by a full read).
        """
        run: Optional[RunResult] = None
        driver_name = "prorace"
        samples: List[PEBSSample] = []
        pt_traces: Dict[int, PTThreadTrace] = {}
        sync_records: List[SyncRecord] = []
        alloc_records: List[AllocRecord] = []
        governor: Optional[GovernorReport] = None
        clock = None
        corrupted: List[str] = []

        for entry in self.sections:
            if not self.file_intact and entry.crc is not None \
                    and not self.verify(entry):
                if not self.salvage:
                    raise TraceFormatError(
                        f"section {entry.index} ({entry.name}) "
                        "checksum mismatch"
                    )
                corrupted.append(f"{entry.name}#{entry.index}")
                continue
            if (threads is not None and entry.kind == _SEC_PT
                    and self.pt_tid(entry) not in threads):
                continue
            try:
                value = self.decode(entry)
            except TraceFormatError:
                # CRC passed but the payload is inconsistent (or the
                # kind is unknown): recoverable only in salvage mode.
                if not self.salvage:
                    raise
                corrupted.append(f"{entry.name}#{entry.index}")
                continue
            kind = entry.kind
            if kind == _SEC_META:
                run, driver_name = value
            elif kind == _SEC_PEBS:
                samples = value
            elif kind == _SEC_PT:
                pt_traces[value.tid] = value
            elif kind == _SEC_SYNC:
                sync_records = value
            elif kind == _SEC_ALLOC:
                alloc_records = value
            elif kind == _SEC_EPOCHS:
                governor = value
            elif kind == _SEC_CLOCK:
                clock = value

        defects: Optional[TraceDefects] = None
        if corrupted:
            defects = TraceDefects(corrupted_sections=tuple(corrupted))
            lost_kinds = {entry.split("#")[0] for entry in corrupted}
            if "sync" in lost_kinds or "alloc" in lost_kinds:
                # No trustworthy happens-before edges at all.
                defects.log_truncated_at_tsc = -1
        if run is None:
            if not self.salvage:
                raise TraceFormatError("missing metadata section")
            run = RunResult(tsc=0, instructions=0, memory_ops=0,
                            branches=0, sync_ops=0, threads=0,
                            io_cycles=0, idle_cycles=0)
        driver = (PRORACE_DRIVER if driver_name == "prorace"
                  else VANILLA_DRIVER)
        accounting = DriverAccounting(driver)
        accounting.samples_taken = accounting.samples_written = len(samples)
        pt_config = PTConfig()
        bundle = TraceBundle(
            program=program,
            run=run,
            samples=samples,
            pt_traces=pt_traces,
            pt_config=pt_config,
            sync_records=sync_records,
            alloc_records=alloc_records,
            pebs_accounting=accounting,
            pt_size_bytes=sum(
                t.size_bytes(pt_config) for t in pt_traces.values()
            ),
            sync_size_bytes=(
                len(sync_records) * SYNC_RECORD_BYTES
                + len(alloc_records) * ALLOC_RECORD_BYTES
            ),
            defects=defects,
        )
        if governor is not None:
            bundle.governor = governor
            bundle.period_epochs = list(governor.epochs)
        if clock is not None:
            bundle.clock = clock
        return bundle


def open_trace(path: Path | str,
               allow_partial: bool = False) -> TraceReader:
    """Open a trace file as a lazy :class:`TraceReader` — header and
    section table validated, no payload decoded yet."""
    return TraceReader(Path(path).read_bytes(), allow_partial=allow_partial)


def read_trace(path: Path | str, program=None,
               allow_partial: bool = False,
               threads: Optional[frozenset] = None) -> TraceBundle:
    """Deserialize a trace file back into a :class:`TraceBundle`.

    Driver *accounting* is not stored (it is derived online); the
    returned bundle carries a fresh accounting object whose
    ``samples_written`` reflects the stored samples, which is all the
    offline stage needs.

    With *allow_partial* (version-2 files only, which carry per-section
    CRCs), a corrupted file is *salvaged*: every section whose CRC
    verifies is recovered, damaged ones are dropped, and the returned
    bundle's ``defects`` names what was lost.  A salvaged bundle with a
    missing sync or alloc log is marked fully truncated
    (``log_truncated_at_tsc = -1``): with no happens-before edges to
    trust, the pipeline suppresses all accesses rather than fabricate
    races.  Version-1 files have no per-section CRCs, so damage cannot
    be localized and *allow_partial* cannot help there.

    With *threads*, PT streams of other threads are skipped without
    decoding — workers that analyze a thread subset pay only for their
    slice.  For finer control (single sections, decode accounting) use
    :func:`open_trace`.
    """
    return TraceReader(
        Path(path).read_bytes(), allow_partial=allow_partial
    ).bundle(program=program, threads=threads)


def read_trace_bytes(blob: bytes, program=None,
                     allow_partial: bool = False,
                     threads: Optional[frozenset] = None) -> TraceBundle:
    """:func:`read_trace` over in-memory container bytes (those of
    :func:`trace_to_bytes`) rather than a file."""
    return TraceReader(blob, allow_partial=allow_partial).bundle(
        program=program, threads=threads
    )


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------

_JOURNAL_MAGIC = b"PRJL"
_JOURNAL_VERSION = 1
#: magic, version, key-digest length.
_JOURNAL_HEADER = struct.Struct("<4sHH")
#: index, payload length, payload crc32.
_JOURNAL_RECORD = struct.Struct("<III")


class ResultJournal:
    """Append-only on-disk journal of completed work-item results.

    The checkpoint format behind ``--checkpoint-dir``/``--resume``: a
    supervised fan-out appends each ``(index, result)`` as it lands, and
    a resumed run replays the journal instead of re-running those items.
    Designed for the failure it must survive — the writer dying
    mid-append (or even mid-*creation*):

    * records are self-delimiting (index, length, crc32, pickled
      payload), so a torn tail is detected by CRC/length — or by the
      payload failing to unpickle despite a colliding CRC — and
      truncated away on open rather than poisoning the resume; the
      dropped byte count is kept in :attr:`dropped_tail_bytes` so the
      supervisor's :class:`~repro.supervise.RunLedger` can account for
      it;
    * a file shorter than the header+digest is recognized as a crash
      during journal *creation* (the partial bytes must be a prefix of
      this key's fresh header) and restarted cleanly instead of
      raising;
    * the header carries a SHA-256 digest of the caller's *key* (the
      sweep/analysis parameters); resuming against a journal written
      for different work raises
      :class:`~repro.errors.CheckpointError` instead of silently
      splicing mismatched results.

    Appends flush+fsync per record: a journal exists precisely to
    survive the crash that loses buffered state.
    """

    def __init__(self, path: Path | str, key: str) -> None:
        self.path = Path(path)
        self.key = key
        self._digest = hashlib.sha256(key.encode()).digest()
        #: index -> unpickled result, from any pre-existing journal.
        self.entries: Dict[int, object] = {}
        #: Torn-tail bytes dropped while opening a pre-existing journal
        #: (0 for a clean open) — surfaced in the RunLedger.
        self.dropped_tail_bytes = 0
        fresh = _JOURNAL_HEADER.pack(
            _JOURNAL_MAGIC, _JOURNAL_VERSION, len(self._digest)
        ) + self._digest
        if self.path.exists() and self.path.stat().st_size > 0:
            self._load(fresh)
        else:
            with open(self.path, "wb") as out:
                out.write(fresh)
        self._out = open(self.path, "ab")

    def _load(self, fresh: bytes) -> None:
        blob = self.path.read_bytes()
        if len(blob) < len(fresh):
            # Shorter than header+digest: either the writer died during
            # journal creation (the bytes are a prefix of this key's
            # fresh header — drop them and start over) or this is some
            # other file we must not clobber.
            if blob != fresh[:len(blob)]:
                raise CheckpointError(f"not a result journal: {self.path}")
            self.dropped_tail_bytes = len(blob)
            self.path.write_bytes(fresh)
            return
        magic, version, digest_len = _JOURNAL_HEADER.unpack_from(blob, 0)
        if magic != _JOURNAL_MAGIC:
            raise CheckpointError(f"not a result journal: {self.path}")
        if version != _JOURNAL_VERSION:
            raise CheckpointError(
                f"unsupported journal version {version}: {self.path}"
            )
        offset = _JOURNAL_HEADER.size
        if blob[offset:offset + digest_len] != self._digest:
            raise CheckpointError(
                f"journal {self.path} was written for different work "
                "parameters; refusing to resume from it"
            )
        offset += digest_len
        good_end = offset
        while offset + _JOURNAL_RECORD.size <= len(blob):
            index, length, crc = _JOURNAL_RECORD.unpack_from(blob, offset)
            start = offset + _JOURNAL_RECORD.size
            payload = blob[start:start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break  # torn tail: the writer died mid-append
            try:
                value = pickle.loads(payload)
            except Exception:
                break  # CRC-colliding garbage tail: still torn
            self.entries[index] = value
            offset = start + length
            good_end = offset
        if good_end < len(blob):
            self.dropped_tail_bytes = len(blob) - good_end
            with open(self.path, "r+b") as out:
                out.truncate(good_end)

    def append(self, index: int, result: object) -> None:
        """Durably record one completed item."""
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._out.write(_JOURNAL_RECORD.pack(
            index, len(payload), zlib.crc32(payload)
        ))
        self._out.write(payload)
        self._out.flush()
        os.fsync(self._out.fileno())
        self.entries[index] = result

    def close(self) -> None:
        try:
            self._out.close()
        except Exception:
            pass

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
