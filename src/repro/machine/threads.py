"""Thread state for the simulated machine."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..isa.registers import RegisterFile
from ..isa.semantics import Flags


class ThreadStatus(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


class BlockReason(enum.Enum):
    MUTEX = "mutex"
    SEMAPHORE = "semaphore"
    CONDVAR = "condvar"
    RWLOCK = "rwlock"
    BARRIER = "barrier"
    JOIN = "join"
    IO = "io"


@dataclass
class ThreadState:
    """One simulated thread (register context + scheduling state)."""

    tid: int
    registers: RegisterFile
    core: int
    parent: Optional[int] = None
    flags: Flags = field(default_factory=Flags)
    status: ThreadStatus = ThreadStatus.READY
    block_reason: Optional[BlockReason] = None
    #: Address (mutex/semaphore) or tid (join) or wake tsc (io) blocked on.
    block_detail: int = 0
    #: Instructions this thread has retired.
    retired: int = 0
    #: Threads waiting to join on this thread.
    join_waiters: List[int] = field(default_factory=list)

    def block(self, reason: BlockReason, detail: int) -> None:
        self.status = ThreadStatus.BLOCKED
        self.block_reason = reason
        self.block_detail = detail

    def unblock(self) -> None:
        self.status = ThreadStatus.READY
        self.block_reason = None
        self.block_detail = 0

    @property
    def ip(self) -> int:
        return self.registers["rip"]

    @ip.setter
    def ip(self, value: int) -> None:
        self.registers["rip"] = value
