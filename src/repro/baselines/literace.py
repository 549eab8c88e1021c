"""The LiteRace baseline (Marino et al., PLDI 2009).

LiteRace instruments the program and samples at *function* granularity
with a cold-region heuristic: each function starts at a 100% sampling
rate that decays as the function gets hot, "based on the heuristic that
for a well-tested application, data races are likely to occur in such a
cold region" (§2).  Instrumentation means the application pays a check on
every function entry (dispatch between instrumented and bare copies) and
a logging cost for every access executed while its function is sampled —
which is why the paper reports 1.47x average slowdown and up to ~3x for
CPU-intensive applications.

Here LiteRace attaches to the machine as an observer: function entries
are CALL targets; the sampler implements the adaptive burst ("cold region
hypothesis") rate; sampled accesses and all sync operations feed the
shared FastTrack detector online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..detector.events import Access, AccessKind, SyncOp
from ..detector.fasttrack import FastTrack
from ..isa.program import Program
from ..machine.machine import Machine
from ..machine.observers import (
    MachineObserver,
    MemoryAccessEvent,
    SyncEvent,
)

#: Instrumentation cost constants (cycles), following the same 1-cycle =
#: 1 ns convention as :mod:`repro.analysis.costs`.
DISPATCH_CHECK_CYCLES = 4
LOGGED_ACCESS_CYCLES = 45


@dataclass
class _FunctionSampler:
    """LiteRace's adaptive per-function sampling rate.

    Starts at 100%; after each sampled burst the rate decays by half down
    to a floor (the paper's bursty, cold-biased curve)."""

    rate: float = 1.0
    floor: float = 0.001
    decay: float = 0.5
    executions: int = 0

    def should_sample(self, draw: float) -> bool:
        self.executions += 1
        sampled = draw < self.rate
        if sampled:
            self.rate = max(self.floor, self.rate * self.decay)
        return sampled


class LiteRace(MachineObserver):
    """Instrumentation-based cold-region sampling race detector."""

    def __init__(self, program: Program, seed: int = 0) -> None:
        import random

        self.program = program
        self.detector = FastTrack()
        self._samplers: Dict[int, _FunctionSampler] = {}
        self._rng = random.Random(seed)
        #: Threads currently inside a sampled burst.
        self._sampling: Set[int] = set()
        self.dispatch_checks = 0
        self.logged_accesses = 0

    # -- sampling control --------------------------------------------------

    def on_thread_start(self, tsc: int, tid: int, core: int, ip: int) -> None:
        # A thread entry behaves like a function entry.
        self._enter_function(tid, ip)

    def on_branch(self, tsc: int, tid: int, ip: int, target: int,
                  taken: Optional[bool], conditional: bool, indirect: bool,
                  is_call: bool) -> None:
        if is_call:
            self._enter_function(tid, target)

    def _enter_function(self, tid: int, entry_ip: int) -> None:
        self.dispatch_checks += 1
        sampler = self._samplers.setdefault(entry_ip, _FunctionSampler())
        if sampler.should_sample(self._rng.random()):
            self._sampling.add(tid)
        else:
            self._sampling.discard(tid)

    # -- event consumption ---------------------------------------------------

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        if event.tid not in self._sampling:
            return
        self.logged_accesses += 1
        self.detector.access(
            Access(
                tid=event.tid,
                var=(event.address, 0),
                kind=AccessKind.WRITE if event.is_store else AccessKind.READ,
                ip=event.ip,
                tsc=float(event.tsc),
                provenance="literace",
            )
        )

    def on_sync(self, event: SyncEvent) -> None:
        # Sync is always tracked (required for happens-before soundness).
        self.detector.sync(
            SyncOp(tid=event.tid, kind=event.kind, target=event.target,
                   tsc=float(event.tsc))
        )

    # -- results ---------------------------------------------------------

    def racy_addresses(self) -> frozenset:
        return self.detector.racy_addresses()

    def overhead_cycles(self) -> int:
        """Instrumentation cycles added to the application."""
        return (
            self.dispatch_checks * DISPATCH_CHECK_CYCLES
            + self.logged_accesses * LOGGED_ACCESS_CYCLES
        )


def run_literace(program: Program, seed: int = 0,
                 num_cores: int = 4) -> LiteRace:
    """Run *program* under LiteRace; returns the finished detector."""
    machine = Machine(program, num_cores=num_cores, seed=seed)
    literace = LiteRace(program, seed=seed + 1)
    machine.attach(literace)
    machine.run()
    return literace
