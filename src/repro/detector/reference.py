"""Reference happens-before detector (DJIT+-style, full vector clocks).

Keeps one read VC and one write VC per variable with no epoch shortcuts.
It is asymptotically slower than FastTrack but trivially auditable; the
test suite checks that FastTrack reports a race on a variable iff this
detector does (FastTrack's correctness theorem).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .base import HBDetectorBackend
from .events import Access, AccessKind, RaceReport
from .vectorclock import VectorClock


@dataclass
class _VarState:
    reads: VectorClock = field(default_factory=VectorClock)
    writes: VectorClock = field(default_factory=VectorClock)
    read_ips: Dict[int, int] = field(default_factory=dict)
    write_ips: Dict[int, int] = field(default_factory=dict)


class ReferenceDetector(HBDetectorBackend):
    """Full-vector-clock happens-before detector."""

    name = "reference"

    def __init__(self) -> None:
        super().__init__()
        self._vars: Dict[Tuple[int, int], _VarState] = {}

    def access(self, access: Access, index: int = -1) -> None:
        self.accesses_processed += 1
        clock = self._clock(access.tid)
        state = self._vars.setdefault(access.var, _VarState())
        # Conflicts with prior writes (any access races an unordered write).
        for tid, wclock in state.writes.items():
            if tid != access.tid and wclock > clock.get(tid):
                self.races.append(
                    RaceReport(
                        var=access.var, first_tid=tid,
                        first_kind=AccessKind.WRITE,
                        first_ip=state.write_ips.get(tid),
                        second=access,
                        index=index,
                    )
                )
        if access.is_write:
            for tid, rclock in state.reads.items():
                if tid != access.tid and rclock > clock.get(tid):
                    self.races.append(
                        RaceReport(
                            var=access.var, first_tid=tid,
                            first_kind=AccessKind.READ,
                            first_ip=state.read_ips.get(tid),
                            second=access,
                            index=index,
                        )
                    )
            state.writes.set(access.tid, clock.get(access.tid))
            state.write_ips[access.tid] = access.ip
        else:
            state.reads.set(access.tid, clock.get(access.tid))
            state.read_ips[access.tid] = access.ip
