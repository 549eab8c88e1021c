"""Simulated multicore machine substrate (stands in for the paper's
Skylake testbed; see DESIGN.md §2)."""

from .controller import PairTargetController, ScheduleController
from .heap import Allocation, Heap, HeapError
from .machine import Machine, MachineError, RETURN_SENTINEL, RunResult
from .memory import Memory
from .observers import (
    AllocEvent,
    MachineObserver,
    MemoryAccessEvent,
    SyncEvent,
)
from .sync import Barrier, Mutex, RWLock, Semaphore, SyncError, SyncTable
from .threads import BlockReason, ThreadState, ThreadStatus

__all__ = [
    "AllocEvent",
    "Allocation",
    "Barrier",
    "BlockReason",
    "Heap",
    "HeapError",
    "Machine",
    "MachineError",
    "MachineObserver",
    "Memory",
    "MemoryAccessEvent",
    "Mutex",
    "PairTargetController",
    "RETURN_SENTINEL",
    "RWLock",
    "RunResult",
    "ScheduleController",
    "Semaphore",
    "SyncError",
    "SyncEvent",
    "SyncTable",
    "ThreadState",
    "ThreadStatus",
]
