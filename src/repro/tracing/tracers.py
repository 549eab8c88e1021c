"""Runtime tracers: synchronization/allocation logging and ground truth.

:class:`SyncTracer` models ProRace's LD_PRELOAD interposition on pthread
synchronization and malloc/free (§4.3): per-thread logs of (type,
variable, TSC), merged offline on the invariant TSC.

:class:`GroundTruthRecorder` has no real-system counterpart — it records
*every* retired memory access.  The reproduction uses it for (a) soundness
oracles in tests (every reconstructed access must match ground truth),
(b) recovery-ratio denominators (Figure 11), and (c) the full-monitoring
FastTrack baseline that sampling-based detection is compared against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..machine.observers import (
    AllocEvent,
    MachineObserver,
    MemoryAccessEvent,
    SyncEvent,
)
from ..pmu.records import (
    ALLOC_RECORD_BYTES,
    AllocRecord,
    SYNC_RECORD_BYTES,
    SyncRecord,
)


class SyncTracer(MachineObserver):
    """Logs synchronization and allocation operations (the LD_PRELOAD shim)."""

    def __init__(self) -> None:
        self.sync_records: List[SyncRecord] = []
        self.alloc_records: List[AllocRecord] = []
        #: Fault injection: the shim silently stops appending records at
        #: this TSC (a wedged log writer / full log disk).  The tracing
        #: governor's watchdog notices the handed-but-unrecorded event
        #: and declares the log truncated.
        self.stall_at: Optional[int] = None

    def _stalled(self, tsc: int) -> bool:
        return self.stall_at is not None and tsc >= self.stall_at

    def on_sync(self, event: SyncEvent) -> None:
        if self._stalled(event.tsc):
            return
        self.sync_records.append(
            SyncRecord(
                tsc=event.tsc,
                seq=event.seq,
                tid=event.tid,
                ip=event.ip,
                kind=event.kind,
                target=event.target,
            )
        )

    def on_alloc(self, event: AllocEvent) -> None:
        if self._stalled(event.tsc):
            return
        self.alloc_records.append(
            AllocRecord(
                tsc=event.tsc,
                tid=event.tid,
                ip=event.ip,
                kind=event.kind,
                address=event.address,
                size=event.size,
            )
        )

    @property
    def size_bytes(self) -> int:
        return (
            len(self.sync_records) * SYNC_RECORD_BYTES
            + len(self.alloc_records) * ALLOC_RECORD_BYTES
        )

    def per_thread(self) -> Dict[int, List[SyncRecord]]:
        """Per-thread logs, as the runtime writes them."""
        logs: Dict[int, List[SyncRecord]] = {}
        for record in self.sync_records:
            logs.setdefault(record.tid, []).append(record)
        return logs


class GroundTruthRecorder(MachineObserver):
    """Records the complete memory-access trace (test oracle only)."""

    def __init__(self) -> None:
        self.accesses: List[MemoryAccessEvent] = []

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        self.accesses.append(event)

    def per_thread(self) -> Dict[int, List[MemoryAccessEvent]]:
        result: Dict[int, List[MemoryAccessEvent]] = {}
        for access in self.accesses:
            result.setdefault(access.tid, []).append(access)
        return result
