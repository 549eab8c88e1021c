"""Trace record types and byte-size constants for the PMU simulation.

Byte sizes drive the trace-size experiments (Figures 8–9).  They follow
the real formats' magnitudes: a Skylake PEBS record with the full register
file is ~192 bytes; the vanilla Linux driver wraps each sample in a perf
event, adding header + metadata (~64 bytes, the "step 2" processing of
Figure 2 that ProRace's driver skips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Bytes of one raw PEBS record in the DS save area (ip, data address,
#: TSC, flags, 17 registers).
RAW_PEBS_RECORD_BYTES = 192

#: Extra bytes the vanilla perf driver adds per sample (perf_event_header,
#: wall-clock time, sample size, sample period, cpu/tid ids).
PERF_METADATA_BYTES = 64

#: Bytes of one synchronization log record (kind, variable, tsc, tid).
SYNC_RECORD_BYTES = 32

#: Bytes of one allocation log record.
ALLOC_RECORD_BYTES = 32

#: Default size of one DS-area buffer / aux-buffer segment (§4.1.1: 64 KB).
DS_SEGMENT_BYTES = 64 * 1024


@dataclass(frozen=True)
class PEBSSample:
    """One decoded PEBS sample.

    PEBS delivers the sampled instruction *and* its architectural execution
    context: the full register file and the time stamp counter (§4.1).
    The registers are the state at the sampled instruction, before its
    destination write lands, so ``registers["rip"]`` is the sampled
    instruction's own ip (``== ip``), not the next one.
    """

    tsc: int
    tid: int
    core: int
    ip: int
    address: int
    is_store: bool
    registers: Dict[str, int]

    def __lt__(self, other: "PEBSSample") -> bool:
        return self.tsc < other.tsc


@dataclass(frozen=True)
class SyncRecord:
    """One synchronization log entry (type, variable, TSC — §4.3)."""

    tsc: int
    seq: int
    tid: int
    ip: int
    kind: str
    target: int


@dataclass(frozen=True)
class AllocRecord:
    """One malloc/free log entry (§4.3 false-positive avoidance)."""

    tsc: int
    tid: int
    ip: int
    kind: str
    address: int
    size: int
