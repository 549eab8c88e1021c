"""The Pacer baseline (Bond et al., PLDI 2010).

Pacer samples *time windows*: with sampling rate ``r``, a fraction ``r``
of execution runs with full FastTrack tracking; outside windows it keeps
only enough state to detect races whose first access fell inside a
window.  Its detection probability is therefore "approximately
proportional to the sampling rate" (§2), and its instrumentation still
costs ~1.86x at r = 3%.

The model: the machine's retirement stream is chopped into fixed-length
windows; within sampled windows every access feeds FastTrack; outside
them, accesses to variables whose shadow state was created inside a
window are still checked (Pacer's "second access detection") but create
no new shadow state.
"""

from __future__ import annotations

import random
from typing import Set, Tuple

from ..detector.events import Access, AccessKind, SyncOp
from ..detector.fasttrack import FastTrack
from ..isa.program import Program
from ..machine.machine import Machine
from ..machine.observers import MachineObserver, MemoryAccessEvent, SyncEvent

#: Instrumentation cost constants (cycles).
BARRIER_CHECK_CYCLES = 3
TRACKED_ACCESS_CYCLES = 60


class Pacer(MachineObserver):
    """Window-sampling FastTrack."""

    def __init__(
        self,
        program: Program,
        sampling_rate: float = 0.03,
        window_cycles: int = 2_000,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sampling_rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0,1]: {sampling_rate}")
        self.program = program
        self.sampling_rate = sampling_rate
        self.window_cycles = window_cycles
        self.detector = FastTrack()
        self._rng = random.Random(seed)
        self._window_end = 0
        self._window_sampled = False
        self._tracked_vars: Set[Tuple[int, int]] = set()
        self.tracked_accesses = 0
        self.barrier_checks = 0

    def _in_sampled_window(self, tsc: int) -> bool:
        if tsc >= self._window_end:
            self._window_end = tsc + self.window_cycles
            self._window_sampled = self._rng.random() < self.sampling_rate
        return self._window_sampled

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        self.barrier_checks += 1
        var = (event.address, 0)
        sampled = self._in_sampled_window(event.tsc)
        if not sampled and var not in self._tracked_vars:
            return
        if sampled:
            self._tracked_vars.add(var)
        self.tracked_accesses += 1
        self.detector.access(
            Access(
                tid=event.tid,
                var=var,
                kind=AccessKind.WRITE if event.is_store else AccessKind.READ,
                ip=event.ip,
                tsc=float(event.tsc),
                provenance="pacer",
            )
        )

    def on_sync(self, event: SyncEvent) -> None:
        # Pacer always tracks synchronization (vector clocks must stay
        # sound even between sampled windows).
        self.detector.sync(
            SyncOp(tid=event.tid, kind=event.kind, target=event.target,
                   tsc=float(event.tsc))
        )

    def racy_addresses(self) -> frozenset:
        return self.detector.racy_addresses()

    def overhead_cycles(self) -> int:
        return (
            self.barrier_checks * BARRIER_CHECK_CYCLES
            + self.tracked_accesses * TRACKED_ACCESS_CYCLES
        )


def run_pacer(program: Program, sampling_rate: float = 0.03, seed: int = 0,
              num_cores: int = 4) -> Pacer:
    """Run *program* under Pacer; returns the finished detector."""
    machine = Machine(program, num_cores=num_cores, seed=seed)
    pacer = Pacer(program, sampling_rate=sampling_rate, seed=seed + 1)
    machine.attach(pacer)
    machine.run()
    return pacer
