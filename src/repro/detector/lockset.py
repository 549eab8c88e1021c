"""Eraser-style lockset race detection (Savage et al., SOSP 1997).

Included as a comparator, not as part of ProRace: the paper chooses
happens-before detection explicitly "for precision (no false positives)"
(§4.3).  Lockset checking flags any shared variable not consistently
protected by a common lock — which is *unsound in neither direction*:
it reports false positives on fork/join- or semaphore-ordered accesses
(no lock, no race) and can miss nothing HB misses.  The test suite and
the lockset-vs-fasttrack ablation quantify exactly that trade-off on
this reproduction's workloads.

The state machine follows the original paper: per variable, Virgin →
Exclusive (first thread) → Shared (reads from others) → Shared-Modified;
candidate locksets are intersected on each access and a race is reported
when the lockset of a Shared-Modified variable becomes empty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .base import DetectorBackend
from .events import Access, AccessKind, RaceReport, SyncOp


class _State(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


@dataclass
class _VarState:
    state: _State = _State.VIRGIN
    owner: Optional[int] = None
    lockset: Optional[FrozenSet[int]] = None  # None = all locks (⊤)
    first_ip: Optional[int] = None
    # Prior accessor, so a warning can name both sides of the pair.
    prior_tid: Optional[int] = None
    prior_kind: Optional[AccessKind] = None
    reported: bool = False


@dataclass(frozen=True)
class LocksetWarning:
    """A lockset violation (a *potential* race)."""

    var: Tuple[int, int]
    tid: int
    kind: AccessKind
    ip: int
    prior_ip: Optional[int]

    @property
    def address(self) -> int:
        return self.var[0]


class LocksetDetector(DetectorBackend):
    """The Eraser algorithm over the same event stream FastTrack takes.

    As a conforming backend it reports each lockset violation both as a
    :class:`LocksetWarning` (the historical surface) and as a
    :class:`~repro.detector.events.RaceReport` pairing the triggering
    access with the prior accessor, so reports/sweeps/the shoot-out can
    treat it uniformly with the HB backends.
    """

    name = "lockset"

    def __init__(self) -> None:
        super().__init__()
        self._held: Dict[int, Set[int]] = {}
        #: Write-mode subset of ``_held``: mutexes and rwlocks held
        #: exclusively.  A reader-held rwlock protects reads (no writer
        #: can run concurrently) but not writes (other readers can) —
        #: Eraser's read-shared/write-exclusive refinement.
        self._held_write: Dict[int, Set[int]] = {}
        self._vars: Dict[Tuple[int, int], _VarState] = {}
        self.warnings: List[LocksetWarning] = []

    def _locks_of(self, tid: int) -> Set[int]:
        return self._held.setdefault(tid, set())

    def _write_locks_of(self, tid: int) -> Set[int]:
        return self._held_write.setdefault(tid, set())

    def sync(self, op: SyncOp) -> None:
        self.sync_processed += 1
        kind = op.kind
        if kind == "lock":
            self._locks_of(op.tid).add(op.target)
            self._write_locks_of(op.tid).add(op.target)
        elif kind == "unlock":
            self._locks_of(op.tid).discard(op.target)
            self._write_locks_of(op.tid).discard(op.target)
        elif kind == "rwlock_rd":
            self._locks_of(op.tid).add(op.target)
        elif kind == "rwlock_wr":
            self._locks_of(op.tid).add(op.target)
            self._write_locks_of(op.tid).add(op.target)
        elif kind == "rwlock_unlock":
            self._locks_of(op.tid).discard(op.target)
            self._write_locks_of(op.tid).discard(op.target)
        # fork/join/semaphores/barriers carry no lockset information:
        # this is the imprecision the paper's HB choice avoids.

    def access(self, access: Access, index: int = -1) -> None:
        self.accesses_processed += 1
        state = self._vars.setdefault(access.var, _VarState())
        # Writes are protected only by write-mode locks; reads by any
        # held lock (a read-held rwlock excludes all writers).
        held = frozenset(
            self._write_locks_of(access.tid)
            if access.is_write
            else self._locks_of(access.tid)
        )

        if state.state == _State.VIRGIN:
            state.state = _State.EXCLUSIVE
            state.owner = access.tid
            self._remember(state, access)
            return
        if state.state == _State.EXCLUSIVE:
            if access.tid == state.owner:
                self._remember(state, access)
                return
            # Second thread: initialize the candidate lockset.
            state.lockset = held
            state.state = (
                _State.SHARED_MODIFIED if access.is_write else _State.SHARED
            )
        else:
            assert state.lockset is not None
            state.lockset = state.lockset & held
            if access.is_write:
                state.state = _State.SHARED_MODIFIED

        if (
            state.state == _State.SHARED_MODIFIED
            and not state.lockset
            and not state.reported
        ):
            state.reported = True
            self.warnings.append(
                LocksetWarning(
                    var=access.var, tid=access.tid, kind=access.kind,
                    ip=access.ip, prior_ip=state.first_ip,
                )
            )
            self.races.append(
                RaceReport(
                    var=access.var,
                    first_tid=(
                        state.prior_tid
                        if state.prior_tid is not None else access.tid
                    ),
                    first_kind=state.prior_kind or access.kind,
                    first_ip=state.first_ip,
                    second=access,
                    index=index,
                )
            )
        self._remember(state, access)

    @staticmethod
    def _remember(state: _VarState, access: Access) -> None:
        state.first_ip = access.ip
        state.prior_tid = access.tid
        state.prior_kind = access.kind
