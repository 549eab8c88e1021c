"""Observer interface through which PMU hardware and tracers watch a run.

The machine publishes retirement-time events; the PEBS engine, PT
packetizer, synchronization tracer, and the ground-truth recorder all
attach as observers.  This mirrors the real system's layering: the
hardware PMU and the LD_PRELOAD shims observe the execution without the
application being recompiled (the paper's *transparency* requirement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

# The machine builds one event per retired access, branch and sync
# operation.  A frozen dataclass's generated ``__init__`` sets each field
# through ``object.__setattr__``; the three per-instruction event types
# below fill the instance dict directly instead, which builds the same
# immutable event in about half the time.


@dataclass(frozen=True, init=False)
class MemoryAccessEvent:
    """A retired load or store.

    ``seq`` is a machine-global emission counter: the TSC advances once per
    instruction, so two events from one instruction (or a blocked lock
    completing inside another thread's unlock) can share a TSC; ``seq``
    breaks those ties deterministically when traces are merged offline.
    """

    tsc: int
    tid: int
    core: int
    ip: int
    address: int
    is_store: bool
    value: int
    seq: int = 0

    def __init__(self, tsc: int, tid: int, core: int, ip: int, address: int,
                 is_store: bool, value: int, seq: int = 0) -> None:
        fields = self.__dict__
        fields["tsc"] = tsc
        fields["tid"] = tid
        fields["core"] = core
        fields["ip"] = ip
        fields["address"] = address
        fields["is_store"] = is_store
        fields["value"] = value
        fields["seq"] = seq


@dataclass(frozen=True, init=False)
class BranchEvent:
    """A retired control-flow transfer."""

    tsc: int
    tid: int
    core: int
    ip: int
    target: int
    #: True for taken conditional branches; None for unconditional ones.
    taken: Optional[bool]
    is_conditional: bool
    is_indirect: bool
    #: True for CALL (the PT return-compression stack shadows calls).
    is_call: bool = False

    def __init__(self, tsc: int, tid: int, core: int, ip: int, target: int,
                 taken: Optional[bool], is_conditional: bool,
                 is_indirect: bool, is_call: bool = False) -> None:
        fields = self.__dict__
        fields["tsc"] = tsc
        fields["tid"] = tid
        fields["core"] = core
        fields["ip"] = ip
        fields["target"] = target
        fields["taken"] = taken
        fields["is_conditional"] = is_conditional
        fields["is_indirect"] = is_indirect
        fields["is_call"] = is_call


@dataclass(frozen=True, init=False)
class SyncEvent:
    """A synchronization operation (lock/unlock/sem/fork/join)."""

    tsc: int
    tid: int
    ip: int
    kind: str  # "lock" | "unlock" | "sem_post" | "sem_wait" | "fork" | "join"
    #: Lock/semaphore variable address, or the peer tid for fork/join.
    target: int
    #: Machine-global emission counter (tie-break at equal TSC).
    seq: int = 0

    def __init__(self, tsc: int, tid: int, ip: int, kind: str, target: int,
                 seq: int = 0) -> None:
        fields = self.__dict__
        fields["tsc"] = tsc
        fields["tid"] = tid
        fields["ip"] = ip
        fields["kind"] = kind
        fields["target"] = target
        fields["seq"] = seq


@dataclass(frozen=True)
class AllocEvent:
    """A heap allocation or deallocation."""

    tsc: int
    tid: int
    ip: int
    kind: str  # "malloc" | "free"
    address: int
    size: int


class MachineObserver:
    """Base observer: override the callbacks you need (no-ops otherwise)."""

    def on_memory_access(self, event: MemoryAccessEvent,
                         registers: Dict[str, int]) -> None:
        """Called on every retired load/store.

        *registers* is the full architectural snapshot after retirement,
        built lazily by the machine only when some observer wants it; a
        PEBS engine uses it when the access is sampled.
        """

    def wants_register_snapshot(self, tid: int) -> bool:
        """Return True if the next memory-access callback for *tid* needs
        the register snapshot.  Building the snapshot on every access would
        be wasteful, so the machine asks first — the PEBS engine answers
        True only when its event counter is about to fire."""
        return False

    def on_branch(self, event: BranchEvent) -> None:
        """Called on every retired branch/call/ret."""

    def on_sync(self, event: SyncEvent) -> None:
        """Called on every synchronization operation."""

    def on_alloc(self, event: AllocEvent) -> None:
        """Called on malloc/free."""

    def on_thread_start(self, tsc: int, tid: int, core: int, ip: int) -> None:
        """Called when a thread begins executing."""

    def on_thread_exit(self, tsc: int, tid: int) -> None:
        """Called when a thread finishes."""

    def on_run_end(self, tsc: int) -> None:
        """Called once when the run completes."""
