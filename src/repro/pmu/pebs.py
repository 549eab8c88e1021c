"""Simulated PEBS: precise event-based sampling of retired loads/stores.

The engine attaches to the machine as an observer and mirrors the hardware
flow of §4.1: a per-core event counter counts retired memory instructions
down; every ``period`` events the hardware writes a record — sampled IP,
data address, TSC, and the full register file at the instruction — into
the current DS-area segment; when the segment fills, the driver takes an
interrupt and either persists or (under throttle pressure) drops the
records.  The engine hands its counters to the machine's run loop (the
countdown protocol of :class:`~repro.machine.observers.MachineObserver`),
which decrements them inline and calls the engine only on an overflow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine.observers import MachineObserver, MemoryAccessEvent
from .drivers import DriverAccounting, DriverModel, PRORACE_DRIVER
from .records import PEBSSample


@dataclass(frozen=True)
class PEBSConfig:
    """PEBS programming: what to sample and how often.

    Args:
        period: sampling period ``k`` — one sample every k monitored
            events (the paper sweeps 10, 100, 1K, 10K, 100K).
        monitor_loads / monitor_stores: which retired memory events count
            (ProRace monitors both user-level loads and stores).
    """

    period: int
    monitor_loads: bool = True
    monitor_stores: bool = True

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1: {self.period}")


class PEBSEngine(MachineObserver):
    """Per-core PEBS sampling with a driver-managed DS buffer.

    Args:
        config: sampling configuration.
        driver: driver model (cost constants + behaviour flags).
        seed: RNG seed for the randomized first period (ProRace driver).
    """

    counts_down = True

    def __init__(
        self,
        config: PEBSConfig,
        driver: DriverModel = PRORACE_DRIVER,
        seed: int = 0,
        segment_records: Optional[int] = None,
    ) -> None:
        self.config = config
        self.driver = driver
        #: Effective sampling period.  Starts at the configured period;
        #: a :class:`~repro.pmu.governor.TracingGovernor` may retune it
        #: live via :meth:`set_period` (the config itself stays frozen).
        self.period = config.period
        self._disabled = False
        #: Fault injection, set before the run: the engine silently stops
        #: producing samples at this TSC while monitored events keep
        #: retiring — the wedged hardware/driver state the governor's
        #: watchdog exists to catch.
        self.stall_at: Optional[int] = None
        #: Seeded load-burst plan (``faults.LoadBurstPlan``), set before
        #: the run: inside a burst every retired access counts as
        #: ``plan.weight(tsc)`` monitored events, modelling a phase that
        #: retires monitored events that much faster without perturbing
        #: the schedule.
        self.load_bursts = None
        #: Attached by trace_run when a governor supervises this engine.
        self.governor = None
        #: Records per DS segment.  The default scales the hardware's
        #: 64 KB segment down for simulation: our runs are orders of
        #: magnitude shorter than real ones, and what must be preserved is
        #: the *interrupts-per-sample* dynamics (DESIGN.md §2).
        self.segment_records = (
            segment_records if segment_records is not None
            else max(4, driver.records_per_segment // 20)
        )
        self.accounting = DriverAccounting(
            driver, segment_records=self.segment_records
        )
        self.samples: List[PEBSSample] = []
        self._rng = random.Random(seed)
        self._buffers: Dict[int, List[PEBSSample]] = {}
        #: The countdown the run loop keeps (MachineObserver): per-core
        #: events left before the next sample, the weight of one retired
        #: load and store, and the TSC until which those weights hold.
        #: ``refresh_at`` 0 makes the run's first access call refresh().
        self.counters: Dict[int, int] = {}
        self.load_weight = 0
        self.store_weight = 0
        self.refresh_at: float = 0

    # ------------------------------------------------------------------

    @property
    def disabled(self) -> bool:
        """True once a governor watchdog disabled the engine (sync-only
        degradation): no further counting, samples, or assist cost."""
        return self._disabled

    @disabled.setter
    def disabled(self, value: bool) -> None:
        self._disabled = value
        self.refresh_at = 0  # the run loop refreshes before it counts again

    def set_period(self, period: int) -> None:
        """Retune the sampling period (takes effect at each counter's
        next reload, like reprogramming the PMU reset value)."""
        if period < 1:
            raise ValueError(f"period must be >= 1: {period}")
        self.period = period

    def _initial_count(self) -> int:
        if self.driver.randomize_first_period:
            return self._rng.randint(1, self.period)
        return self.period

    # ------------------------------------------------------------------
    # MachineObserver interface
    # ------------------------------------------------------------------

    def on_thread_start(self, tsc: int, tid: int, core: int, ip: int) -> None:
        if core not in self.counters:
            self.counters[core] = self._initial_count()

    def refresh(self, tsc: int) -> None:
        """Set the event weights of the accesses from *tsc* on, and the
        TSC until which they hold: the next load-burst boundary or the
        stall.  A disabled or stalled engine counts nothing again."""
        stall_at = self.stall_at
        if self._disabled or (stall_at is not None and tsc >= stall_at):
            self.load_weight = self.store_weight = 0
            self.refresh_at = float("inf")
            return
        weight, until = 1, float("inf")
        if self.load_bursts is not None:
            weight, until = self.load_bursts.segment(tsc)
        if stall_at is not None:
            until = min(until, stall_at)
        self.load_weight = weight if self.config.monitor_loads else 0
        self.store_weight = weight if self.config.monitor_stores else 0
        self.refresh_at = until

    def on_overflow(self, event: MemoryAccessEvent,
                    registers: Dict[str, int]) -> None:
        """The counter of the event's core overflowed: the hardware
        writes a PEBS record and reloads the counter."""
        core = event.core
        self.counters[core] = self.period
        self.accounting.on_sample()
        sample = PEBSSample(
            tsc=event.tsc,
            tid=event.tid,
            core=core,
            ip=event.ip,
            address=event.address,
            is_store=event.is_store,
            registers=registers,
        )
        buffer = self._buffers.setdefault(core, [])
        buffer.append(sample)
        if len(buffer) >= self.segment_records:
            self._drain(core, event.tsc)

    def on_run_end(self, tsc: int) -> None:
        for core in list(self._buffers):
            self._drain(core, tsc, force=True)

    # ------------------------------------------------------------------

    def _drain(self, core: int, tsc: int, force: bool = False) -> None:
        buffer = self._buffers.get(core)
        if not buffer:
            return
        governor = self.governor
        if governor is not None and not force and governor.hard_drop_active:
            # Hard-drop backpressure: the governor rearms the DS pointer
            # and the buffer never reaches the interrupt handler.
            self.accounting.record_governor_shed(len(buffer))
            governor.account_hard_drop(len(buffer))
            self._buffers[core] = []
            governor.on_drain(tsc)
            return
        if self.accounting.on_buffer_full(core, len(buffer), tsc, force=force):
            self.samples.extend(buffer)
        self._buffers[core] = []
        if governor is not None and not force:
            governor.on_drain(tsc)
