"""The DataCollider baseline (Erickson et al., OSDI 2010).

DataCollider avoids instrumentation: it samples a code/memory location,
arms a hardware *data breakpoint* on the sampled address, and delays the
sampling thread; a trap during the delay means another thread touched the
same address concurrently — a race caught in the act (§2).  Two hardware
limits shape its coverage: x86 exposes only **four** debug registers, and
longer delays increase both the overlap chance and the overhead.

The model: an observer samples every k-th access; if a debug register is
free, it arms a watchpoint (address, expiry = tsc + delay); any other
thread's access to a watched address before expiry is a detected race.
The *sampling thread's delay* is charged as overhead (the paper's
delay-proportional cost) but does not perturb the simulated schedule —
consistent with how all cost models in this reproduction work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..isa.program import Program
from ..machine.machine import Machine
from ..machine.observers import MachineObserver, MemoryAccessEvent

#: x86 debug-register count (§2: "hardware restrictions limit the number
#: of concurrently monitored memory locations to four").
MAX_WATCHPOINTS = 4


@dataclass(frozen=True)
class Collision:
    """A conflicting pair caught by a watchpoint."""

    address: int
    first_tid: int
    first_ip: int
    first_is_store: bool
    second_tid: int
    second_ip: int
    second_is_store: bool
    tsc: int


@dataclass
class _Watchpoint:
    address: int
    owner_tid: int
    owner_ip: int
    owner_is_store: bool
    expires: int


class DataCollider(MachineObserver):
    """Breakpoint-and-delay race detector."""

    def __init__(
        self,
        program: Program,
        period: int = 1_000,
        delay_cycles: int = 200,
        seed: int = 0,
    ) -> None:
        import random

        self.program = program
        self.period = period
        self.delay_cycles = delay_cycles
        self._rng = random.Random(seed)
        self._countdown = self._rng.randint(1, period)
        self._watchpoints: List[_Watchpoint] = []
        self.collisions: List[Collision] = []
        self.samples = 0
        self.delays = 0

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        # Check standing watchpoints first: a hit is a race in the act.
        remaining = []
        for wp in self._watchpoints:
            if wp.expires < event.tsc:
                continue  # expired
            if wp.address == event.address and wp.owner_tid != event.tid:
                # Read-read overlaps are not races.
                if wp.owner_is_store or event.is_store:
                    self.collisions.append(
                        Collision(
                            address=wp.address,
                            first_tid=wp.owner_tid,
                            first_ip=wp.owner_ip,
                            first_is_store=wp.owner_is_store,
                            second_tid=event.tid,
                            second_ip=event.ip,
                            second_is_store=event.is_store,
                            tsc=event.tsc,
                        )
                    )
                continue  # breakpoint consumed
            remaining.append(wp)
        self._watchpoints = remaining

        # Sampling decision.
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.period
        self.samples += 1
        if len(self._watchpoints) >= MAX_WATCHPOINTS:
            return  # all four debug registers busy
        self.delays += 1
        self._watchpoints.append(
            _Watchpoint(
                address=event.address,
                owner_tid=event.tid,
                owner_ip=event.ip,
                owner_is_store=event.is_store,
                expires=event.tsc + self.delay_cycles,
            )
        )

    # -- results -----------------------------------------------------------

    def racy_addresses(self) -> frozenset:
        return frozenset(c.address for c in self.collisions)

    def racy_ip_pairs(self) -> frozenset:
        return frozenset(
            tuple(sorted((c.first_ip, c.second_ip))) for c in self.collisions
        )

    def overhead_cycles(self) -> int:
        """Each armed watchpoint delays its thread for the full window."""
        return self.delays * self.delay_cycles


def run_datacollider(
    program: Program,
    period: int = 1_000,
    delay_cycles: int = 200,
    seed: int = 0,
    num_cores: int = 4,
) -> DataCollider:
    """Run *program* under DataCollider; returns the finished detector."""
    machine = Machine(program, num_cores=num_cores, seed=seed)
    collider = DataCollider(
        program, period=period, delay_cycles=delay_cycles, seed=seed + 1
    )
    machine.attach(collider)
    machine.run()
    return collider
