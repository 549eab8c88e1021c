"""The simulated multithreaded machine.

An interpreter for :mod:`repro.isa` programs with:

* a seeded, preemptive scheduler (quantum + random preemption) so repeated
  runs explore different interleavings — the paper's detection-probability
  experiments (Table 2) collect 100 traces per configuration, each a
  different schedule;
* a global timestamp counter (TSC) that is *invariant* across cores, the
  property recent Intel processors provide (§4.3) and that ProRace relies
  on to merge per-thread traces offline — production boxes that break
  the property (per-core skew, drift, migration steps, non-monotonic
  reads) are modeled at the *bundle* level by
  :mod:`repro.clock.faults`, never inside the machine, so the machine
  stays the ground truth the clock layer is judged against;
* sequentially consistent shared memory (one instruction retires at a
  time), FIFO mutexes/semaphores, fork/join threads, and a recycling heap;
* an observer interface through which the PMU simulation and tracers watch
  retirement-time events without perturbing the application;
* a per-program pre-decode: each instruction becomes a handler with its
  operands resolved once, so executing it costs one table call (see
  :class:`Machine`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..isa.instructions import (
    ALU_BINARY,
    ALU_UNARY,
    COND_BRANCHES,
    Instruction,
    Op,
)
from ..isa.operands import Imm, Mem, Operand, Reg
from ..isa.program import (
    Program,
    ProgramError,
    STACK_BASE,
    STACK_SIZE,
)
from ..isa.registers import MASK64, REG_SLOT, RegisterFile
from ..isa.semantics import (
    _ALU_FUNCS,
    _TAKEN,
    _UNARY_FUNCS,
    compare,
    test_bits,
)
from .heap import Heap
from .memory import Memory
from .observers import (
    AllocEvent,
    MachineObserver,
    MemoryAccessEvent,
    SyncEvent,
)
from .sync import SyncTable
from .threads import BlockReason, ThreadState, ThreadStatus

#: Value pushed as the bottom-of-stack return address of every thread;
#: returning to it ends the thread (like returning from a pthread entry).
RETURN_SENTINEL = 0xDEAD_BEEF_DEAD_BEEF

#: Register slots the handlers touch directly.
_RIP = REG_SLOT["rip"]
_RSP = REG_SLOT["rsp"]


class MachineError(Exception):
    """Raised on machine-level failures (deadlock, runaway execution...)."""


@dataclass
class RunResult:
    """Summary statistics of one run."""

    tsc: int
    instructions: int
    memory_ops: int
    branches: int
    sync_ops: int
    threads: int
    io_cycles: int
    idle_cycles: int
    per_thread_retired: Dict[int, int] = field(default_factory=dict)

    @property
    def cpu_cycles(self) -> int:
        """Cycles spent executing instructions (excludes idle waiting)."""
        return self.tsc - self.idle_cycles


class Machine:
    """Executes a :class:`Program` with multiple threads.

    The constructor pre-decodes the program once into a per-ip table of
    handlers, ``handler(machine, thread)``.  Each handler has its
    operand kinds, register slots, ALU function, flag predicate and
    branch target resolved when it is built, so retiring an instruction
    is a fetch bounds check, the counters and one table call.  Handlers
    read and write the thread's :attr:`RegisterFile.slots` directly.
    They capture only per-instruction constants, never the machine or
    its bound methods, which would make every machine a reference cycle
    that only the cyclic collector frees.  The table lives on the
    machine, not on the :class:`Program`, which is pickled into
    confirmation workers.

    Args:
        program: the binary to run.
        num_cores: number of simulated cores (threads are pinned
            round-robin, ``core = tid % num_cores``).
        seed: scheduler seed; fixing it makes the run deterministic.
        quantum: instructions a thread runs before preemption.
        preempt_probability: chance of an early preemption at any
            instruction boundary (interleaving diversity).
        max_instructions: runaway guard.
        controller: optional :class:`~repro.machine.controller.\
ScheduleController` that overrides scheduling while active, driving
            threads toward a witness interleaving.  A controlled run
            lasts only while its controller is active: it ends at the
            first instruction boundary after the controller fired,
            diverged or ran out of budget, with the threads where they
            are.  Any controller provides ``active``, ``pick``,
            ``pick_again``, ``observe_access`` and ``observe_sync``.
    """

    def __init__(
        self,
        program: Program,
        num_cores: int = 4,
        seed: int = 0,
        quantum: int = 40,
        preempt_probability: float = 0.02,
        max_instructions: int = 20_000_000,
        controller=None,
    ) -> None:
        self.program = program
        self.num_cores = num_cores
        self.quantum = quantum
        self.preempt_probability = preempt_probability
        self.max_instructions = max_instructions
        self._rng = random.Random(seed)
        self.controller = controller
        self.memory = Memory(program.data)
        self.heap = Heap()
        self.sync = SyncTable()
        self.threads: Dict[int, ThreadState] = {}
        self.observers: List[MachineObserver] = []
        # Bound by run(): the counting observers, and per event kind the
        # hooks of the observers that take it.
        self._counting: List[MachineObserver] = []
        self._access_hooks: List[Callable] = []
        self._branch_hooks: List[Callable] = []
        self._sync_hooks: List[Callable] = []
        self._alloc_hooks: List[Callable] = []
        self.tsc = 0
        self._next_tid = 0
        self._instructions = 0
        self._memory_ops = 0
        self._branches = 0
        self._sync_ops = 0
        self._io_cycles = 0
        self._idle_cycles = 0
        self._seq = 0
        self._started = False
        #: tid -> thread for threads blocked on IO, + earliest wake tsc.
        self._io_blocked: Dict[int, ThreadState] = {}
        self._io_next_wake: float = float("inf")
        self._handlers: List[Handler] = [
            _decode(program, ip, ins)
            for ip, ins in enumerate(program.instructions)
        ]

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def attach(self, observer: MachineObserver) -> None:
        """Attach an observer (PMU, tracer, recorder) before running."""
        if self._started:
            raise MachineError("cannot attach observers after run start")
        self.observers.append(observer)

    def _create_thread(self, entry_ip: int,
                       parent: Optional[ThreadState]) -> ThreadState:
        tid = self._next_tid
        self._next_tid += 1
        registers = (
            parent.registers.copy() if parent is not None else RegisterFile()
        )
        stack_top = STACK_BASE + (tid + 1) * STACK_SIZE
        rsp = stack_top - 8
        # The kernel seeds the bottom-of-stack return address; this is not
        # a user-level access, so no observer event is emitted.
        self.memory.store(rsp, RETURN_SENTINEL)
        registers["rsp"] = rsp
        registers["rbp"] = rsp
        registers["rip"] = entry_ip
        thread = ThreadState(
            tid=tid,
            registers=registers,
            core=tid % self.num_cores,
            parent=parent.tid if parent else None,
        )
        self.threads[tid] = thread
        for obs in self.observers:
            obs.on_thread_start(self.tsc, tid, thread.core, entry_ip)
        return thread

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, entry: str = "main") -> RunResult:
        """Run from label *entry* until every thread is done, or, under
        a controller, until the controller deactivates; returns run
        statistics."""
        if self._started:
            raise MachineError("machine instances are single-use")
        self._started = True
        observers = self.observers
        self._counting = [obs for obs in observers
                          if getattr(obs, "counts_down", False)]
        self._access_hooks = _hooks(observers, "on_memory_access")
        self._branch_hooks = _hooks(observers, "on_branch")
        self._sync_hooks = _hooks(observers, "on_sync")
        self._alloc_hooks = _hooks(observers, "on_alloc")
        entry_ip = (
            self.program.resolve(entry) if entry in self.program.labels else 0
        )
        self._create_thread(entry_ip, parent=None)

        import math as _math

        current: Optional[ThreadState] = None
        ready = ThreadStatus.READY
        log1mp = (
            _math.log(1.0 - self.preempt_probability)
            if 0.0 < self.preempt_probability < 1.0
            else None
        )
        controller = self.controller
        while True:
            if controller is not None and not controller.active:
                # A controlled run ends at its verdict: the first
                # instruction boundary after the controller fired,
                # diverged or ran out of budget.
                break
            runnable = [
                t for t in self.threads.values() if t.status is ready
            ]
            if not runnable:
                if all(
                    t.status == ThreadStatus.DONE
                    for t in self.threads.values()
                ):
                    break
                self._advance_past_io()
                continue
            if controller is not None:
                forced = controller.pick(runnable)
                if forced is not None:
                    # The controller decides at every instruction
                    # boundary.  While it would force the same thread
                    # again without a random draw, it says so through
                    # pick_again, and the thread keeps running here
                    # without a new runnable list.
                    current = forced
                    step, again = self._step, controller.pick_again
                    while True:
                        step(current)
                        if (self._io_blocked
                                and self._io_next_wake <= self.tsc):
                            self._wake_io()
                        if current.status is not ready or not again(current):
                            break
                    continue
                if not controller.active:
                    break
                # Controller declined this boundary but is still
                # watching (pair targeting): the seeded scheduler runs
                # one instruction, so it sees every boundary.
                current = self._pick(runnable, current)
                self._step(current)
                if self._io_blocked and self._io_next_wake <= self.tsc:
                    self._wake_io()
                continue
            current = self._pick(runnable, current)
            # Time-slice length: the quantum, cut short by a random
            # preemption point (geometric with the per-instruction
            # preemption probability — one draw replaces one per step).
            slice_len = self.quantum
            if log1mp is not None:
                draw = self._rng.random()
                geometric = int(_math.log(max(draw, 1e-300)) / log1mp) + 1
                slice_len = min(slice_len, max(1, geometric))
            elif self.preempt_probability >= 1.0:
                slice_len = 1
            steps = 0
            while steps < slice_len and current.status is ready:
                self._step(current)
                steps += 1
                if self._io_blocked and self._io_next_wake <= self.tsc:
                    self._wake_io()

        for obs in self.observers:
            obs.on_run_end(self.tsc)
        return RunResult(
            tsc=self.tsc,
            instructions=self._instructions,
            memory_ops=self._memory_ops,
            branches=self._branches,
            sync_ops=self._sync_ops,
            threads=self._next_tid,
            io_cycles=self._io_cycles,
            idle_cycles=self._idle_cycles,
            per_thread_retired={
                t.tid: t.retired for t in self.threads.values()
            },
        )

    def _pick(self, runnable: List[ThreadState],
              current: Optional[ThreadState]) -> ThreadState:
        """Round-robin successor of *current* with a randomized tie-break."""
        if current is not None and len(runnable) > 1:
            candidates = [t for t in runnable if t.tid != current.tid]
        else:
            candidates = runnable
        start = 0 if current is None else current.tid + 1
        candidates.sort(key=lambda t: (t.tid - start) % self._next_tid)
        if len(candidates) > 1 and self._rng.random() < 0.25:
            return self._rng.choice(candidates)
        return candidates[0]

    def _advance_past_io(self) -> None:
        """All threads blocked: jump the TSC to the earliest IO wake-up."""
        if not self._io_blocked:
            raise MachineError(
                "deadlock: all threads blocked on sync "
                f"at tsc={self.tsc}"
            )
        wake = min(t.block_detail for t in self._io_blocked.values())
        self._idle_cycles += max(0, wake - self.tsc)
        self.tsc = max(self.tsc, wake)
        self._wake_io()

    def _wake_io(self) -> None:
        next_wake = None
        for tid, thread in list(self._io_blocked.items()):
            if thread.block_detail <= self.tsc:
                thread.unblock()
                del self._io_blocked[tid]
            elif next_wake is None or thread.block_detail < next_wake:
                next_wake = thread.block_detail
        self._io_next_wake = (
            next_wake if next_wake is not None else float("inf")
        )

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------

    def _step(self, thread: ThreadState) -> None:
        ip = thread.registers.slots[_RIP]
        if not 0 <= ip < len(self._handlers):
            raise MachineError(
                f"thread {thread.tid} fetched out-of-range ip {ip}"
            )
        self._instructions += 1
        thread.retired += 1
        if self._instructions > self.max_instructions:
            raise MachineError(
                f"instruction budget exceeded ({self.max_instructions})"
            )
        self.tsc += 1
        self._handlers[ip](self, thread)

    # -- event emission ----------------------------------------------------
    #
    # An event goes only to the hooks bound by run() and, for accesses and
    # sync operations, to an active controller; an event none of them
    # would receive (a confirmation replay attaches no observers) is not
    # built.

    def _emit_access(self, thread: ThreadState, ip: int, address: int,
                     is_store: bool, value: int) -> None:
        self._memory_ops += 1
        self._seq += 1
        event = registers = None
        # The counting observers' per-core down-counters (PEBS), kept
        # here so that an access that does not overflow one costs no call.
        for obs in self._counting:
            tsc = self.tsc
            if tsc >= obs.refresh_at:
                obs.refresh(tsc)
            weight = obs.store_weight if is_store else obs.load_weight
            if not weight:
                continue
            counters, core = obs.counters, thread.core
            count = counters[core] - weight
            if count > 0:
                counters[core] = count
                continue
            if event is None:
                event = MemoryAccessEvent(tsc, thread.tid, core, ip,
                                          address, is_store, value,
                                          self._seq)
                # Architectural state *at* the instruction, before its
                # own destination write lands: the machine emits access
                # events before writing destinations, so the live
                # register file is exactly this state.
                registers = thread.registers.snapshot()
                registers["rip"] = ip
            obs.on_overflow(event, registers)
        controller = self.controller
        watching = controller is not None and controller.active
        if not (self._access_hooks or watching):
            return
        if event is None:
            event = MemoryAccessEvent(self.tsc, thread.tid, thread.core, ip,
                                      address, is_store, value, self._seq)
        for hook in self._access_hooks:
            hook(event)
        if watching:
            controller.observe_access(event)

    def _emit_branch(self, thread: ThreadState, ip: int, target: int,
                     taken: Optional[bool], conditional: bool,
                     indirect: bool, is_call: bool = False) -> None:
        self._branches += 1
        hooks = self._branch_hooks
        if not hooks:
            return
        tsc, tid = self.tsc, thread.tid
        for hook in hooks:
            hook(tsc, tid, ip, target, taken, conditional, indirect, is_call)

    def _emit_sync(self, thread: ThreadState, ip: int, kind: str,
                   target: int) -> None:
        self._sync_ops += 1
        self._seq += 1
        controller = self.controller
        watching = controller is not None and controller.active
        hooks = self._sync_hooks
        if not (hooks or watching):
            return
        event = SyncEvent(self.tsc, thread.tid, ip, kind, target, self._seq)
        for hook in hooks:
            hook(event)
        if watching:
            controller.observe_sync(event)

    def _emit_alloc(self, thread: ThreadState, ip: int, kind: str,
                    address: int, size: int) -> None:
        hooks = self._alloc_hooks
        if not hooks:
            return
        event = AllocEvent(self.tsc, thread.tid, ip, kind, address, size)
        for hook in hooks:
            hook(event)

    # ------------------------------------------------------------------
    # System and synchronization ops.  Their handlers read the operands
    # (loads included) and call these bodies.
    # ------------------------------------------------------------------

    def _op_spawn(self, thread: ThreadState, ip: int, entry_ip: int,
                  operands: Sequence[Operand]) -> None:
        child = self._create_thread(entry_ip, parent=thread)
        (dst,) = operands
        assert isinstance(dst, Reg)
        thread.registers[dst.name] = child.tid
        self._emit_sync(thread, ip, "fork", child.tid)
        thread.ip = ip + 1

    def _op_join(self, thread: ThreadState, ip: int, tid: int) -> None:
        peer = self.threads.get(tid)
        if peer is None:
            raise MachineError(f"join on unknown tid {tid}")
        thread.ip = ip + 1
        if peer.status == ThreadStatus.DONE:
            self._emit_sync(thread, ip, "join", tid)
            return
        peer.join_waiters.append(thread.tid)
        thread.block(BlockReason.JOIN, tid)
        # The join sync event is emitted when the join completes (at the
        # joined thread's exit), preserving happens-before TSC ordering.

    def _op_lock(self, thread: ThreadState, ip: int, address: int) -> None:
        mutex = self.sync.mutex(address)
        thread.ip = ip + 1
        if mutex.acquire(thread.tid):
            self._emit_sync(thread, ip, "lock", address)
        else:
            thread.block(BlockReason.MUTEX, address)

    def _op_unlock(self, thread: ThreadState, ip: int,
                   address: int) -> None:
        mutex = self.sync.mutex(address)
        self._emit_sync(thread, ip, "unlock", address)
        next_owner = mutex.release(thread.tid)
        thread.ip = ip + 1
        if next_owner is not None:
            waiter = self.threads[next_owner]
            waiter.unblock()
            # The waiter's lock acquisition completes now.
            self._emit_sync(waiter, waiter.ip - 1, "lock", address)

    def _op_cond_wait(self, thread: ThreadState, ip: int, cv_addr: int,
                      mutex_addr: int) -> None:
        cv = self.sync.condvar(cv_addr)
        mutex = self.sync.mutex(mutex_addr)
        # pthread_cond_wait: atomically release the mutex and sleep.
        self._emit_sync(thread, ip, "unlock", mutex_addr)
        next_owner = mutex.release(thread.tid)
        if next_owner is not None:
            waiter = self.threads[next_owner]
            waiter.unblock()
            self._emit_sync(waiter, waiter.ip - 1, "lock", mutex_addr)
        cv.waiters.append((thread.tid, mutex_addr))
        thread.ip = ip + 1
        thread.block(BlockReason.CONDVAR, cv_addr)

    def _wake_cond_waiter(self, cv) -> None:
        tid, mutex_addr = cv.waiters.popleft()
        waiter = self.threads[tid]
        # Conservative HB edge signaler → waiter (common detector
        # practice; POSIX only promises ordering through the mutex).
        self._emit_sync(waiter, waiter.ip - 1, "cond_wake", cv.address)
        mutex = self.sync.mutex(mutex_addr)
        if mutex.acquire(tid):
            waiter.unblock()
            self._emit_sync(waiter, waiter.ip - 1, "lock", mutex_addr)
        else:
            # Queued for the mutex; wakes via the unlock hand-off path.
            waiter.block(BlockReason.MUTEX, mutex_addr)

    def _op_cond_signal(self, thread: ThreadState, ip: int,
                        cv_addr: int) -> None:
        cv = self.sync.condvar(cv_addr)
        self._emit_sync(thread, ip, "cond_signal", cv_addr)
        if cv.waiters:
            self._wake_cond_waiter(cv)
        thread.ip = ip + 1

    def _op_cond_broadcast(self, thread: ThreadState, ip: int,
                           cv_addr: int) -> None:
        cv = self.sync.condvar(cv_addr)
        self._emit_sync(thread, ip, "cond_signal", cv_addr)
        while cv.waiters:
            self._wake_cond_waiter(cv)
        thread.ip = ip + 1

    def _op_sem_post(self, thread: ThreadState, ip: int,
                     address: int) -> None:
        sem = self.sync.semaphore(address)
        self._emit_sync(thread, ip, "sem_post", address)
        woken = sem.post()
        thread.ip = ip + 1
        if woken is not None:
            waiter = self.threads[woken]
            waiter.unblock()
            self._emit_sync(waiter, waiter.ip - 1, "sem_wait", address)

    def _op_sem_wait(self, thread: ThreadState, ip: int,
                     address: int) -> None:
        sem = self.sync.semaphore(address)
        thread.ip = ip + 1
        if sem.wait(thread.tid):
            self._emit_sync(thread, ip, "sem_wait", address)
        else:
            thread.block(BlockReason.SEMAPHORE, address)

    def _op_rwlock_rd(self, thread: ThreadState, ip: int,
                      address: int) -> None:
        rwlock = self.sync.rwlock(address)
        thread.ip = ip + 1
        if rwlock.acquire_rd(thread.tid):
            self._emit_sync(thread, ip, "rwlock_rd", address)
        else:
            thread.block(BlockReason.RWLOCK, address)

    def _op_rwlock_wr(self, thread: ThreadState, ip: int,
                      address: int) -> None:
        rwlock = self.sync.rwlock(address)
        thread.ip = ip + 1
        if rwlock.acquire_wr(thread.tid):
            self._emit_sync(thread, ip, "rwlock_wr", address)
        else:
            thread.block(BlockReason.RWLOCK, address)

    def _op_rwlock_unlock(self, thread: ThreadState, ip: int,
                          address: int) -> None:
        rwlock = self.sync.rwlock(address)
        self._emit_sync(thread, ip, "rwlock_unlock", address)
        woken = rwlock.release(thread.tid)
        thread.ip = ip + 1
        for tid, mode in woken:
            waiter = self.threads[tid]
            waiter.unblock()
            kind = "rwlock_wr" if mode == "wr" else "rwlock_rd"
            # The waiter's acquisition completes now.
            self._emit_sync(waiter, waiter.ip - 1, kind, address)

    def _op_barrier_wait(self, thread: ThreadState, ip: int, address: int,
                         parties: int) -> None:
        barrier = self.sync.barrier(address)
        self._emit_sync(thread, ip, "barrier_arrive", address)
        thread.ip = ip + 1
        released = barrier.arrive(thread.tid, parties)
        if released is None:
            thread.block(BlockReason.BARRIER, address)
            return
        for tid in released:
            if tid == thread.tid:
                self._emit_sync(thread, ip, "barrier_wait", address)
            else:
                waiter = self.threads[tid]
                waiter.unblock()
                self._emit_sync(waiter, waiter.ip - 1, "barrier_wait",
                                address)

    def _op_malloc(self, thread: ThreadState, ip: int, nbytes: int,
                   dst: str) -> None:
        address = self.heap.malloc(nbytes, self.tsc)
        thread.registers[dst] = address
        self._emit_alloc(thread, ip, "malloc", address, nbytes)
        thread.ip = ip + 1

    def _op_free(self, thread: ThreadState, ip: int, address: int) -> None:
        record = self.heap.free(address, self.tsc)
        self._emit_alloc(thread, ip, "free", address, record.size)
        thread.ip = ip + 1

    def _op_io(self, thread: ThreadState, ip: int, cycles: int) -> None:
        self._io_cycles += cycles
        thread.ip = ip + 1
        wake = self.tsc + cycles
        thread.block(BlockReason.IO, wake)
        self._io_blocked[thread.tid] = thread
        if wake < self._io_next_wake:
            self._io_next_wake = wake

    def _exit_thread(self, thread: ThreadState) -> None:
        thread.status = ThreadStatus.DONE
        for obs in self.observers:
            obs.on_thread_exit(self.tsc, thread.tid)
        for waiter_tid in thread.join_waiters:
            waiter = self.threads[waiter_tid]
            waiter.unblock()
            self._emit_sync(waiter, waiter.ip - 1, "join", thread.tid)
        thread.join_waiters.clear()


def _hooks(observers: Sequence[MachineObserver], name: str) -> List[Callable]:
    """The bound *name* hooks of the *observers* whose class overrides
    :class:`MachineObserver`'s no-op."""
    base = getattr(MachineObserver, name)
    return [getattr(obs, name) for obs in observers
            if getattr(type(obs), name, base) is not base]


# ---------------------------------------------------------------------------
# Pre-decode: one handler per instruction.  A handler's closure holds only
# constants of its instruction (slots, masked immediates, address
# functions, the ALU function, the branch target) — see Machine.
# ---------------------------------------------------------------------------

#: ``handler(machine, thread)``: retires one decoded instruction.
Handler = Callable[[Machine, ThreadState], None]
#: ``reader(machine, thread) -> value`` of one source operand.
Reader = Callable[[Machine, ThreadState], int]


def _decode(program: Program, ip: int, ins: Instruction) -> Handler:
    """The handler of instruction *ins* at address *ip*.

    An instruction whose operands do not fit its opcode decodes to a
    handler that raises, when it executes, what executing it raised
    before any side effect.
    """
    decoder = _DECODERS.get(ins.op)
    if decoder is None:
        return _raising(MachineError(f"unimplemented opcode: {ins.op}"))
    try:
        return decoder(program, ip, ins)
    except (AssertionError, ValueError, ProgramError) as error:
        return _raising(error)


def _raising(error: Exception) -> Handler:
    # Keep the class and arguments, not the exception: its traceback
    # reaches the constructing machine's frame.
    kind, args = type(error), error.args

    def handler(machine: Machine, thread: ThreadState) -> None:
        raise kind(*args)

    return handler


def _address(mem: Mem, ip: int) -> Callable[[List[int]], int]:
    """*mem*'s effective address as a function of the register slots
    (:func:`~repro.isa.semantics.effective_address`, resolved once)."""
    disp, scale = mem.disp, mem.scale
    if mem.rip_relative or not (mem.base or mem.index):
        address = ((ip if mem.rip_relative else 0) + disp) & MASK64
        return lambda r: address
    if mem.base and mem.index:
        base, index = REG_SLOT[mem.base], REG_SLOT[mem.index]
        return lambda r: (r[base] + r[index] * scale + disp) & MASK64
    if mem.base:
        base = REG_SLOT[mem.base]
        return lambda r: (r[base] + disp) & MASK64
    index = REG_SLOT[mem.index]
    return lambda r: (r[index] * scale + disp) & MASK64


def _reader(operand: Operand, ip: int) -> Reader:
    """Reader of a source operand; reading a memory operand retires a
    load."""
    if isinstance(operand, Imm):
        value = operand.value & MASK64
        return lambda machine, thread: value
    if isinstance(operand, Reg):
        slot = REG_SLOT[operand.name]
        return lambda machine, thread: thread.registers.slots[slot]
    address_of = _address(operand, ip)

    def load(machine: Machine, thread: ThreadState) -> int:
        address = address_of(thread.registers.slots)
        value = machine.memory.load(address)
        machine._emit_access(thread, ip, address, False, value)
        return value

    return load


def _operand_reader(operands: Sequence[Operand], k: int,
                    ip: int) -> Reader:
    """Reader of operand *k*, which a malformed instruction may lack:
    reading a missing operand raises only then, as it always did."""
    if k < len(operands):
        return _reader(operands[k], ip)
    return lambda machine, thread: operands[k]


def _decode_mov(program: Program, ip: int, ins: Instruction) -> Handler:
    src, dst = ins.operands
    read, nxt = _reader(src, ip), ip + 1
    if isinstance(dst, Reg):
        d = REG_SLOT[dst.name]

        def mov(machine: Machine, thread: ThreadState) -> None:
            value = read(machine, thread)
            r = thread.registers.slots
            r[d] = value
            r[_RIP] = nxt

        return mov
    if not isinstance(dst, Mem):
        message = f"cannot write to operand {dst}"

        def unwritable(machine: Machine, thread: ThreadState) -> None:
            read(machine, thread)
            raise MachineError(message)

        return unwritable
    address_of = _address(dst, ip)

    def store(machine: Machine, thread: ThreadState) -> None:
        value = read(machine, thread)
        r = thread.registers.slots
        address = address_of(r)
        machine.memory.store(address, value)
        machine._emit_access(thread, ip, address, True, value)
        r[_RIP] = nxt

    return store


def _decode_lea(program: Program, ip: int, ins: Instruction) -> Handler:
    mem, dst = ins.operands
    assert isinstance(mem, Mem) and isinstance(dst, Reg)
    address_of, d, nxt = _address(mem, ip), REG_SLOT[dst.name], ip + 1

    def lea(machine: Machine, thread: ThreadState) -> None:
        r = thread.registers.slots
        r[d] = address_of(r)
        r[_RIP] = nxt

    return lea


def _decode_alu(program: Program, ip: int, ins: Instruction) -> Handler:
    src, dst = ins.operands
    assert isinstance(dst, Reg)
    func, d, nxt = _ALU_FUNCS[ins.op], REG_SLOT[dst.name], ip + 1
    if isinstance(src, Imm):
        value = src.value & MASK64

        def alu_imm(machine: Machine, thread: ThreadState) -> None:
            r = thread.registers.slots
            r[d] = func(value, r[d]) & MASK64
            r[_RIP] = nxt

        return alu_imm
    read = _reader(src, ip)

    def alu(machine: Machine, thread: ThreadState) -> None:
        value = read(machine, thread)
        r = thread.registers.slots
        r[d] = func(value, r[d]) & MASK64
        r[_RIP] = nxt

    return alu


def _decode_alu_unary(program: Program, ip: int,
                      ins: Instruction) -> Handler:
    (dst,) = ins.operands
    assert isinstance(dst, Reg)
    func, d, nxt = _UNARY_FUNCS[ins.op], REG_SLOT[dst.name], ip + 1

    def alu_unary(machine: Machine, thread: ThreadState) -> None:
        r = thread.registers.slots
        r[d] = func(r[d]) & MASK64
        r[_RIP] = nxt

    return alu_unary


def _decode_flags(program: Program, ip: int, ins: Instruction) -> Handler:
    a, b = ins.operands
    rule = compare if ins.op is Op.CMP else test_bits
    read_a, read_b = _reader(a, ip), _reader(b, ip)
    nxt = ip + 1

    def flags(machine: Machine, thread: ThreadState) -> None:
        value = read_a(machine, thread)
        thread.flags = rule(value, read_b(machine, thread))
        thread.registers.slots[_RIP] = nxt

    return flags


def _decode_push(program: Program, ip: int, ins: Instruction) -> Handler:
    read = (_reader(ins.operands[0], ip) if ins.operands
            else lambda machine, thread: 0)
    nxt = ip + 1

    def push(machine: Machine, thread: ThreadState) -> None:
        value = read(machine, thread)
        r = thread.registers.slots
        rsp = (r[_RSP] - 8) & MASK64
        machine.memory.store(rsp, value)
        # Emit before updating rsp so sampled snapshots see
        # pre-execution register state.
        machine._emit_access(thread, ip, rsp, True, value)
        r[_RSP] = rsp
        r[_RIP] = nxt

    return push


def _decode_pop(program: Program, ip: int, ins: Instruction) -> Handler:
    (dst,) = ins.operands
    assert isinstance(dst, Reg)
    d, nxt = REG_SLOT[dst.name], ip + 1

    def pop(machine: Machine, thread: ThreadState) -> None:
        r = thread.registers.slots
        rsp = r[_RSP]
        value = machine.memory.load(rsp)
        machine._emit_access(thread, ip, rsp, False, value)
        r[d] = value
        r[_RSP] = (rsp + 8) & MASK64
        r[_RIP] = nxt

    return pop


def _decode_jmp(program: Program, ip: int, ins: Instruction) -> Handler:
    if ins.target is not None:
        target = program.target_address(ins)

        def jmp(machine: Machine, thread: ThreadState) -> None:
            machine._emit_branch(thread, ip, target, None, False, False)
            thread.registers.slots[_RIP] = target

        return jmp
    (reg,) = ins.operands
    assert isinstance(reg, Reg)
    s = REG_SLOT[reg.name]

    def jmp_indirect(machine: Machine, thread: ThreadState) -> None:
        r = thread.registers.slots
        target = r[s]
        machine._emit_branch(thread, ip, target, None, False, True)
        r[_RIP] = target

    return jmp_indirect


def _decode_jcc(program: Program, ip: int, ins: Instruction) -> Handler:
    taken_if, nxt = _TAKEN[ins.op], ip + 1
    try:
        target = program.target_address(ins)
    except ProgramError as error:
        # Only a taken branch needs its (missing) target.
        fail = _raising(error)

        def jcc_untargeted(machine: Machine, thread: ThreadState) -> None:
            if taken_if(thread.flags):
                fail(machine, thread)
            machine._emit_branch(thread, ip, nxt, False, True, False)
            thread.registers.slots[_RIP] = nxt

        return jcc_untargeted

    def jcc(machine: Machine, thread: ThreadState) -> None:
        if taken_if(thread.flags):
            machine._emit_branch(thread, ip, target, True, True, False)
            thread.registers.slots[_RIP] = target
        else:
            machine._emit_branch(thread, ip, nxt, False, True, False)
            thread.registers.slots[_RIP] = nxt

    return jcc


def _decode_call(program: Program, ip: int, ins: Instruction) -> Handler:
    target, return_ip = program.target_address(ins), ip + 1

    def call(machine: Machine, thread: ThreadState) -> None:
        r = thread.registers.slots
        rsp = (r[_RSP] - 8) & MASK64
        r[_RSP] = rsp
        # The return-address push is part of the control transfer, not a
        # PEBS-countable data access (thread-private, never racy).
        machine.memory.store(rsp, return_ip)
        machine._emit_branch(thread, ip, target, None, False, False, True)
        r[_RIP] = target

    return call


def _decode_ret(program: Program, ip: int, ins: Instruction) -> Handler:
    def ret(machine: Machine, thread: ThreadState) -> None:
        r = thread.registers.slots
        rsp = r[_RSP]
        target = machine.memory.load(rsp)
        r[_RSP] = (rsp + 8) & MASK64
        if target == RETURN_SENTINEL:
            machine._exit_thread(thread)
            return
        machine._emit_branch(thread, ip, target, None, False, True)
        r[_RIP] = target

    return ret


def _decode_halt(program: Program, ip: int, ins: Instruction) -> Handler:
    def halt(machine: Machine, thread: ThreadState) -> None:
        machine._exit_thread(thread)

    return halt


def _decode_nop(program: Program, ip: int, ins: Instruction) -> Handler:
    nxt = ip + 1

    def nop(machine: Machine, thread: ThreadState) -> None:
        thread.registers.slots[_RIP] = nxt

    return nop


def _decode_spawn(program: Program, ip: int, ins: Instruction) -> Handler:
    entry_ip, operands = program.target_address(ins), ins.operands

    def spawn(machine: Machine, thread: ThreadState) -> None:
        machine._op_spawn(thread, ip, entry_ip, operands)

    return spawn


def _decode_malloc(program: Program, ip: int, ins: Instruction) -> Handler:
    size, dst = ins.operands
    assert isinstance(dst, Reg)
    read, name = _reader(size, ip), dst.name

    def malloc(machine: Machine, thread: ThreadState) -> None:
        machine._op_malloc(thread, ip, read(machine, thread), name)

    return malloc


#: Sync and system ops whose bodies take their evaluated operands:
#: opcode -> (body, number of operands read).
_SYSTEM_BODIES = {
    Op.JOIN: (Machine._op_join, 1),
    Op.LOCK: (Machine._op_lock, 1),
    Op.UNLOCK: (Machine._op_unlock, 1),
    Op.SEM_POST: (Machine._op_sem_post, 1),
    Op.SEM_WAIT: (Machine._op_sem_wait, 1),
    Op.COND_WAIT: (Machine._op_cond_wait, 2),
    Op.COND_SIGNAL: (Machine._op_cond_signal, 1),
    Op.COND_BROADCAST: (Machine._op_cond_broadcast, 1),
    Op.RWLOCK_RD: (Machine._op_rwlock_rd, 1),
    Op.RWLOCK_WR: (Machine._op_rwlock_wr, 1),
    Op.RWLOCK_UNLOCK: (Machine._op_rwlock_unlock, 1),
    Op.BARRIER_WAIT: (Machine._op_barrier_wait, 2),
    Op.FREE: (Machine._op_free, 1),
    Op.IO: (Machine._op_io, 1),
}


def _decode_system(program: Program, ip: int, ins: Instruction) -> Handler:
    body, arity = _SYSTEM_BODIES[ins.op]
    read = _operand_reader(ins.operands, 0, ip)
    if arity == 1:
        def system(machine: Machine, thread: ThreadState) -> None:
            body(machine, thread, ip, read(machine, thread))

        return system
    read_second = _operand_reader(ins.operands, 1, ip)

    def system2(machine: Machine, thread: ThreadState) -> None:
        first = read(machine, thread)
        body(machine, thread, ip, first, read_second(machine, thread))

    return system2


_DECODERS: Dict[Op, Callable[[Program, int, Instruction], Handler]] = {
    Op.MOV: _decode_mov,
    Op.LEA: _decode_lea,
    Op.PUSH: _decode_push,
    Op.POP: _decode_pop,
    Op.CMP: _decode_flags,
    Op.TEST: _decode_flags,
    Op.JMP: _decode_jmp,
    Op.CALL: _decode_call,
    Op.RET: _decode_ret,
    Op.SPAWN: _decode_spawn,
    Op.MALLOC: _decode_malloc,
    Op.HALT: _decode_halt,
    Op.NOP: _decode_nop,
}
_DECODERS.update({op: _decode_system for op in _SYSTEM_BODIES})
_DECODERS.update({op: _decode_alu for op in ALU_BINARY})
_DECODERS.update({op: _decode_alu_unary for op in ALU_UNARY})
_DECODERS.update({op: _decode_jcc for op in COND_BRANCHES})
