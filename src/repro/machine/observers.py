"""Observer interface through which PMU hardware and tracers watch a run.

The machine publishes retirement-time events; the PEBS engine, PT
packetizer, synchronization tracer, and the ground-truth recorder all
attach as observers.  This mirrors the real system's layering: the
hardware PMU and the LD_PRELOAD shims observe the execution without the
application being recompiled (the paper's *transparency* requirement).
The PEBS engine does not see every access: like the hardware, it
counts retired accesses down and takes one only when a counter
overflows (see :class:`MachineObserver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# The machine builds an event for each retired access and sync operation
# that some observer takes (a branch builds none: its hook takes the
# fields as arguments).  A frozen dataclass's generated ``__init__`` sets
# each field through ``object.__setattr__``; the two per-instruction
# event types below fill the instance dict directly instead, which
# builds the same immutable event in about half the time.


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
    """Base observer: override the callbacks you need.

    The run loop hands each kind of event only to the observers whose
    class overrides its hook, so an observer pays nothing for the
    events it ignores.

    An observer that wants a retired access only when a per-core event
    counter overflows (the PEBS engine: real PEBS is a down-counter
    that writes a record when it runs out, §4.1) sets
    :attr:`counts_down` instead of overriding :meth:`on_memory_access`.
    The run loop then keeps the count itself, through these members:

    * ``counters``: core -> events left before the next overflow, each
      at least 1; the observer sets a core's entry in
      :meth:`on_thread_start`, before that core's first access;
    * ``load_weight`` and ``store_weight``: the events one retired load
      or store counts as (0: it is not counted);
    * ``refresh_at`` and ``refresh(tsc)``: before it counts an access
      at a TSC at or after ``refresh_at``, the run loop calls
      ``refresh``, which sets the weights and ``refresh_at`` for the
      accesses from that TSC on;
    * ``on_overflow(event, registers)``: called when an access takes
      its core's counter to zero or below; it must reload the counter.
      *registers* is the architectural state at the instruction, before
      its destination write lands: the semantics the paper's backward
      propagation relies on (§5.2.1, Figure 5: a sample's context holds
      the value a register carried since its previous update).

    For a counting observer the run loop builds the access event and
    the register snapshot only when a counter overflows.
    """

    #: True for an observer that counts accesses down (see above).
    counts_down = False

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        """Called on every retired load/store."""

    def on_branch(self, tsc: int, tid: int, ip: int, target: int,
                  taken: Optional[bool], conditional: bool, indirect: bool,
                  is_call: bool) -> None:
        """Called on every retired branch/call/ret, with its fields
        rather than an event: the PT packetizer takes every branch.

        *target* is where control goes next; *taken* is the outcome of
        a conditional branch and None for any other; *indirect* marks a
        register-indirect jump or a return; *is_call* a CALL (the PT
        return-compression stack shadows calls).
        """

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
