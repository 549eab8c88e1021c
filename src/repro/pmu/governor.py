"""The tracing governor: closed-loop control of the online PMU stage.

ProRace's online side as the paper describes it is *open loop*: the user
picks a PEBS period ``k`` and hopes the kernel throttle (§4.1 footnote,
modelled in :meth:`~repro.pmu.drivers.DriverAccounting.on_buffer_full`)
never fires.  When a bursty phase does trip it, whole DS buffers vanish
silently — the §7.3 period-10 size inversion — and the offline stage
cannot even account for what it lost.  Production monitors (HardRace,
PAPERS.md) instead *adapt* the sampling configuration at runtime.

:class:`TracingGovernor` closes the loop.  Attached to the machine as an
observer alongside the tracers it governs, it:

* samples :class:`~repro.pmu.drivers.DriverAccounting` over decision
  windows (handler-cycle occupancy, hardware-assist cycles, throttle
  drop rate) and estimates the current tracing overhead with the same
  pollution/fixed-cost structure as the offline cost model;
* adapts the effective PEBS period within ``[k_min, k_max]`` to hold a
  configurable overhead budget (default ≤2%, Figure 6's envelope), with
  hysteresis so the controller settles instead of thrashing;
* applies **tiered backpressure** when widening alone cannot absorb the
  load: widen the period → shed PT bytes (an accounted OVF gap, the
  exact artefact real PT emits on aux-buffer overflow) → hard-drop PEBS
  buffers before the interrupt handler ever runs.  Every tier action is
  accounted, never silent;
* perturbs each new period by a small seeded random factor, preserving
  §4.1.2's sampling-phase diversity across epochs the way the driver's
  randomized first period does across threads;
* runs a **watchdog**: a PEBS engine that stops producing samples while
  monitored events keep retiring, or a sync tracer that drops a
  synchronization record it was handed, is declared stalled and the run
  degrades to sync-only tracing (plus a declared truncation point for a
  stalled sync log) rather than wedging.

Every control action is logged as a :class:`PeriodEpoch` marker.  The
markers travel with the :class:`~repro.tracing.bundle.TraceBundle`
(serialized in the version-3 trace container) so the offline stage can
anchor timelines per epoch, compute detection probability against the
piecewise-variable period, and reconcile governor actions against
observed losses in the
:class:`~repro.analysis.pipeline.DegradationReport`.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..machine.observers import MachineObserver, MemoryAccessEvent, SyncEvent

#: Backpressure tiers, in escalation order.  Each escalation step is
#: accounted in the :class:`GovernorReport` and marked with an epoch.
TIER_NOMINAL = 0      #: at or below budget; period at its configured base
TIER_WIDEN = 1        #: period widened above base to absorb load
TIER_SHED_PT = 2      #: PT packets shed (accounted as an OVF gap)
TIER_HARD_DROP = 3    #: PEBS buffers dropped before the handler runs
TIER_SYNC_ONLY = 4    #: watchdog tripped: PEBS off, sync log only

TIER_NAMES = ("nominal", "widen", "shed-pt", "hard-drop", "sync-only")

#: Epoch-marker reasons (serialized by id; order is part of the v3
#: container format — append only).
EPOCH_REASONS = (
    "init", "widen", "narrow", "shed-pt", "resume-pt", "hard-drop",
    "resume-drop", "watchdog", "sync-stall",
)


@dataclass(frozen=True)
class PeriodEpoch:
    """One span of the run during which the sampling configuration held.

    A new epoch starts at every governor action: a period change, a tier
    transition, or a watchdog trip.  ``period`` is the effective PEBS
    period in force from ``start_tsc`` until the next epoch's start (or
    run end); ``period == 0`` means PEBS is off (sync-only tracing).
    ``overhead`` is the windowed overhead estimate that triggered the
    action (0.0 for the initial epoch).
    """

    start_tsc: int
    period: int
    tier: int
    reason: str
    overhead: float = 0.0


def epoch_index_at(epochs: Sequence[PeriodEpoch], tsc: float) -> int:
    """Index of the epoch covering *tsc* (epochs sorted by start_tsc).

    Timestamps before the first epoch's start belong to the first epoch:
    epoch 0 always starts at the trace origin.
    """
    if not epochs:
        raise ValueError("no epochs")
    starts = [e.start_tsc for e in epochs]
    return max(0, bisect.bisect_right(starts, tsc) - 1)


def effective_period(epochs: Sequence[PeriodEpoch], total_tsc: int,
                     default_period: float) -> float:
    """The time-weighted effective sampling period of a (possibly
    governed) run: total traced time over the expected sample count
    ``sum(duration_i / k_i)`` across the period epochs.

    This is the piecewise-variable-period correction of "Dynamic Race
    Detection With O(1) Samples": detection math must track the *actual*
    per-epoch sampling rate, not the configured one.  Sync-only epochs
    (``period == 0``) contribute observation time but no samples, so they
    push the effective period up.  An ungoverned run has no epochs and
    keeps its configured *default_period*.  Returns ``inf`` when no
    epoch ever sampled.
    """
    if not epochs:
        return float(default_period)
    total = max(int(total_tsc), epochs[-1].start_tsc)
    expected = 0.0
    for index, epoch in enumerate(epochs):
        end = (epochs[index + 1].start_tsc if index + 1 < len(epochs)
               else total)
        duration = max(0, end - epoch.start_tsc)
        if epoch.period > 0:
            expected += duration / epoch.period
    if expected <= 0.0:
        return float("inf")
    return total / expected


@dataclass(frozen=True)
class GovernorConfig:
    """Control-loop parameters of the tracing governor.

    Args:
        overhead_budget: ceiling on the tracing-overhead fraction the
            controller holds (0.02 = the paper's ≤2% envelope, Fig. 6).
        k_min: lower bound on the adaptive period.  ``None`` means the
            run's base period — by default the governor only ever
            *relieves* pressure; set it below the base period to let the
            governor harvest idle headroom with denser sampling.
        k_max: upper bound on the adaptive period (``None``: 1024× the
            base period).
        decision_ticks: minimum TSC ticks between control decisions —
            the decision window the overhead estimate is computed over.
        hysteresis: de-escalation threshold as a fraction of the budget.
            The governor escalates above ``budget`` but de-escalates
            only below ``budget * hysteresis``, so a marginal load does
            not make the controller oscillate.
        smoothing: EWMA weight of each new decision window in the
            overhead estimate the budget is compared against.  Bursty
            load makes raw windows alternate between near-zero (quiet)
            and huge (burst); controlling on the smoothed value holds
            the *average* overhead — which is what an overhead budget
            means — instead of chasing each spike down and each lull up.
            (A window with throttle drops still escalates immediately.)
        grow / shrink: multiplicative period step per widen / narrow
            decision.  ``grow`` is the *minimum* widening factor: when
            the measured overhead exceeds the budget by more, the
            governor widens proportionally (capped) so one decision
            lands near the budget instead of climbing geometrically
            through many over-budget windows.
        perturb: fractional seeded jitter applied to every new period
            (±), preserving §4.1.2's sampling-phase diversity across
            epochs.
        watchdog_periods: a PEBS engine producing no sample for more
            than ``watchdog_periods * current_period`` ticks (floored by
            *watchdog_floor_ticks*) while monitored events retire is
            declared stalled.
        watchdog_floor_ticks: lower bound on the stall threshold.
        seed: drives the period perturbation; one seed fully determines
            a governed run (given the machine seed).
    """

    overhead_budget: float = 0.02
    k_min: Optional[int] = None
    k_max: Optional[int] = None
    decision_ticks: int = 400
    hysteresis: float = 0.5
    grow: float = 2.0
    shrink: float = 0.5
    perturb: float = 0.05
    smoothing: float = 0.4
    watchdog_periods: int = 64
    watchdog_floor_ticks: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.overhead_budget:
            raise ValueError(
                f"overhead_budget must be positive: {self.overhead_budget}"
            )
        if not 0.0 <= self.hysteresis <= 1.0:
            raise ValueError(f"hysteresis must be in [0, 1]: "
                             f"{self.hysteresis}")
        if self.grow <= 1.0 or not 0.0 < self.shrink < 1.0:
            raise ValueError("grow must be > 1 and shrink in (0, 1)")
        if not 0.0 <= self.perturb < 1.0:
            raise ValueError(f"perturb must be in [0, 1): {self.perturb}")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1]: "
                             f"{self.smoothing}")
        if self.decision_ticks < 1:
            raise ValueError("decision_ticks must be >= 1")


@dataclass
class GovernorReport:
    """Everything the governor did during one run.

    Travels with the trace bundle (serialized in the v3 epoch section)
    so the offline :class:`~repro.analysis.pipeline.DegradationReport`
    can reconcile each declared governor action against the losses the
    consumers actually observed.
    """

    overhead_budget: float = 0.02
    base_period: int = 0
    k_min: int = 0
    k_max: int = 0
    decisions: int = 0
    widenings: int = 0
    narrowings: int = 0
    tier_transitions: int = 0
    pt_sheds: int = 0
    pt_bytes_shed: int = 0
    pt_packets_shed: int = 0
    hard_drop_bursts: int = 0
    hard_dropped_samples: int = 0
    watchdog_trips: int = 0
    sync_stalls: int = 0
    final_period: int = 0
    final_tier: int = TIER_NOMINAL
    #: Overhead estimate of the last completed decision window — the
    #: steady-state figure the budget assertion checks (the convergence
    #: transient before the first decisions is visible in the epochs).
    final_overhead: float = 0.0
    epochs: List[PeriodEpoch] = field(default_factory=list)


class TracingGovernor(MachineObserver):
    """Closed-loop controller over one run's online tracers.

    Attach *after* the tracers it governs: its callbacks must observe
    the state they just updated.  The governor never touches the traced
    machine — like every observer it is passive with respect to the
    simulated application, so a governed and an ungoverned run of the
    same seed execute the identical schedule and differ only in what
    the tracers record.

    Args:
        config: control-loop parameters.
        engine: the PEBS engine under control.
        pt: the PT packetizer (tier-2 shedding target).
        sync: the sync tracer (watchdog liveness subject).
        defects: the defect record governor-caused losses are declared
            on (owned by :func:`~repro.tracing.bundle.trace_run`).
    """

    #: Events between watchdog/decision polls on the access path (the
    #: governor sees every retired access; the mask keeps it cheap).
    POLL_MASK = 63

    #: Cap on the proportional widening factor per decision.  Sampling
    #: overhead is roughly inversely proportional to the period, so one
    #: proportional step (``overhead / budget``) lands the next window
    #: near the budget instead of climbing there geometrically through
    #: many over-budget windows; the cap bounds the overshoot a single
    #: wild window can cause.
    PROPORTIONAL_CAP = 128.0

    def __init__(self, config: GovernorConfig, engine, pt, sync,
                 defects) -> None:
        self.config = config
        self.engine = engine
        self.pt = pt
        self.sync = sync
        self.defects = defects
        base = engine.period
        k_min = config.k_min if config.k_min is not None else base
        k_max = (config.k_max if config.k_max is not None
                 else base * 1024)
        if not 1 <= k_min <= k_max:
            raise ValueError(f"need 1 <= k_min <= k_max, got "
                             f"[{k_min}, {k_max}]")
        self.k_min = k_min
        self.k_max = max(k_max, base)
        self.base_period = base
        self.tier = TIER_NOMINAL
        self.report = GovernorReport(
            overhead_budget=config.overhead_budget, base_period=base,
            k_min=self.k_min, k_max=self.k_max, final_period=base,
        )
        self._rng = random.Random(config.seed)
        self._events = 0
        # Decision-window baseline: the accounting summary at window start.
        self._window_start_tsc = 0
        self._window_base = engine.accounting.summary()
        #: EWMA of window overheads — what the budget is compared to.
        self._smoothed: Optional[float] = None
        # Watchdog state.
        self._last_samples_taken = 0
        self._last_progress_tsc = 0
        self._last_sync_len = 0
        self._sync_stalled = False
        self._mark(0, "init", 0.0)

    # ------------------------------------------------------------------
    # Epoch markers
    # ------------------------------------------------------------------

    @property
    def epochs(self) -> List[PeriodEpoch]:
        return self.report.epochs

    def _mark(self, tsc: int, reason: str, overhead: float) -> None:
        period = 0 if self.engine.disabled else self.engine.period
        self.report.epochs.append(
            PeriodEpoch(start_tsc=tsc, period=period, tier=self.tier,
                        reason=reason, overhead=overhead)
        )

    def _transition(self, new_tier: int) -> None:
        if new_tier != self.tier:
            self.report.tier_transitions += 1
            self.tier = new_tier

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    @property
    def hard_drop_active(self) -> bool:
        """Consulted by the engine before each buffer drain: in the
        hard-drop tier the buffer is discarded pre-interrupt."""
        return self.tier == TIER_HARD_DROP

    def account_hard_drop(self, n_records: int) -> None:
        """One buffer the engine shed on the governor's orders."""
        self.report.hard_drop_bursts += 1
        self.report.hard_dropped_samples += n_records
        self.defects.samples_dropped += n_records
        self.defects.drop_bursts += 1

    def on_drain(self, tsc: int) -> None:
        """Called by the engine after every (non-forced) buffer-full
        interrupt — the natural decision point under load."""
        self._maybe_decide(tsc)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------

    def _window_overhead(self, tsc: int) -> Optional[float]:
        """Tracing-overhead estimate over the current decision window,
        mirroring the cost model's structure (handler + hardware assist
        + cache-pollution amplification + fixed fraction).  Computed by
        differencing :meth:`~repro.pmu.drivers.DriverAccounting.summary`
        snapshots — the same telemetry the text report renders."""
        dt = tsc - self._window_start_tsc
        if dt <= 0:
            return None
        accounting = self.engine.accounting
        now = accounting.summary()
        base = self._window_base
        d_handler = now["handler_cycles"] - base["handler_cycles"]
        d_hw = now["hw_assist_cycles"] - base["hw_assist_cycles"]
        occupancy = d_handler / dt
        pollution = min(accounting.POLLUTION_GAIN * occupancy,
                        accounting.driver.pollution_cap)
        return ((d_hw + d_handler * (1.0 + pollution)) / dt
                + accounting.driver.fixed_overhead_fraction)

    def _reset_window(self, tsc: int) -> None:
        self._window_start_tsc = tsc
        self._window_base = self.engine.accounting.summary()

    def _perturbed(self, target: float) -> int:
        """Clamp *target* into [k_min, k_max] with seeded ±perturb
        jitter — per-epoch sampling-phase diversity (§4.1.2)."""
        if self.config.perturb > 0.0:
            target *= 1.0 + self._rng.uniform(-self.config.perturb,
                                              self.config.perturb)
        return max(self.k_min, min(self.k_max, max(1, int(round(target)))))

    def _maybe_decide(self, tsc: int) -> None:
        if self.engine.disabled:
            return
        if tsc - self._window_start_tsc < self.config.decision_ticks:
            return
        window = self._window_overhead(tsc)
        if window is None:
            return
        drops = (self.engine.accounting.dropped_interrupts
                 - self._window_base["dropped_interrupts"])
        alpha = self.config.smoothing
        if self._smoothed is None:
            self._smoothed = window
        else:
            self._smoothed = alpha * window + (1.0 - alpha) * self._smoothed
        overhead = self._smoothed
        self.report.decisions += 1
        self.report.final_overhead = overhead
        budget = self.config.overhead_budget
        if drops > 0 or overhead > budget:
            # Data-shedding tiers engage only when the *current* window
            # is over budget (or the throttle dropped): the smoothed
            # estimate lags, and shedding data because the average has
            # not yet decayed after a period jump would lose trace for
            # load that is already gone.
            self._escalate(tsc, overhead,
                           hot=drops > 0 or window > budget)
        elif overhead < budget * self.config.hysteresis:
            self._relax(tsc, overhead)
        self._reset_window(tsc)

    def _escalate(self, tsc: int, overhead: float,
                  hot: bool = True) -> None:
        period = self.engine.period
        if period < self.k_max:
            factor = max(
                self.config.grow,
                min(overhead / self.config.overhead_budget,
                    self.PROPORTIONAL_CAP),
            )
            new_period = self._perturbed(period * factor)
            if new_period > period:
                self.engine.set_period(new_period)
                self.report.widenings += 1
                self._transition(max(self.tier, TIER_WIDEN))
                self._mark(tsc, "widen", overhead)
                return
        if not hot:
            return
        if self.tier < TIER_SHED_PT:
            self._transition(TIER_SHED_PT)
            self.pt.begin_shed(tsc)
            self._mark(tsc, "shed-pt", overhead)
        elif self.tier < TIER_HARD_DROP:
            self._transition(TIER_HARD_DROP)
            self._mark(tsc, "hard-drop", overhead)
        # Already at the last tier: nothing further to shed.

    def _relax(self, tsc: int, overhead: float) -> None:
        if self.tier == TIER_HARD_DROP:
            self._transition(TIER_SHED_PT)
            self._mark(tsc, "resume-drop", overhead)
            return
        if self.tier == TIER_SHED_PT:
            self._close_shed(tsc)
            self._transition(TIER_WIDEN)
            self._mark(tsc, "resume-pt", overhead)
            return
        period = self.engine.period
        if period > self.k_min:
            new_period = self._perturbed(
                max(self.k_min, period * self.config.shrink)
            )
            if new_period < period:
                self.engine.set_period(new_period)
                self.report.narrowings += 1
                if new_period <= self.base_period:
                    self._transition(TIER_NOMINAL)
                self._mark(tsc, "narrow", overhead)

    def _close_shed(self, tsc: int) -> None:
        """End a PT shed interval and account the loss."""
        gaps, packets, shed_bytes = self.pt.end_shed(tsc)
        self.report.pt_sheds += gaps
        self.report.pt_packets_shed += packets
        self.report.pt_bytes_shed += shed_bytes
        self.defects.pt_gaps += gaps
        self.defects.pt_packets_lost += packets

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------

    def _watchdog_threshold(self) -> int:
        return max(self.config.watchdog_floor_ticks,
                   self.config.watchdog_periods * self.engine.period)

    def _check_watchdog(self, tsc: int) -> None:
        taken = self.engine.accounting.samples_taken
        if taken != self._last_samples_taken:
            self._last_samples_taken = taken
            self._last_progress_tsc = tsc
            return
        if tsc - self._last_progress_tsc > self._watchdog_threshold():
            self._trip_watchdog(tsc)

    def _trip_watchdog(self, tsc: int) -> None:
        """The PEBS engine stalled: degrade to sync-only tracing.

        PEBS is disabled (no further assist cost, no samples) and the PT
        stream is shed from here on — without samples to resynchronize
        at, post-stall PT could not be replayed anyway.  The run itself
        continues untouched.
        """
        self.report.watchdog_trips += 1
        self.engine.disabled = True
        if self.tier != TIER_SHED_PT and self.tier != TIER_SYNC_ONLY:
            self.pt.begin_shed(tsc)
        elif self.tier == TIER_SYNC_ONLY:  # pragma: no cover - guarded
            return
        self._transition(TIER_SYNC_ONLY)
        self._mark(tsc, "watchdog", self.report.final_overhead)

    def _trip_sync_stall(self, tsc: int) -> None:
        """The sync tracer dropped a record it was handed: declare the
        log truncated at its last good timestamp so the offline stage
        suppresses conservatively instead of trusting a silent hole."""
        if self._sync_stalled:
            return
        self._sync_stalled = True
        self.report.sync_stalls += 1
        records = self.sync.sync_records
        cutoff = records[-1].tsc if records else -1
        previous = self.defects.log_truncated_at_tsc
        self.defects.log_truncated_at_tsc = (
            cutoff if previous is None else min(previous, cutoff)
        )
        self._mark(tsc, "sync-stall", self.report.final_overhead)

    # ------------------------------------------------------------------
    # MachineObserver interface
    # ------------------------------------------------------------------

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        self._events += 1
        if self._events & self.POLL_MASK:
            return
        if not self.engine.disabled:
            self._check_watchdog(event.tsc)
            # Decide on the poll path too: at very wide periods buffer
            # drains (the other decision trigger) become rare, and
            # de-escalation must not wait for one.
            self._maybe_decide(event.tsc)

    def on_sync(self, event: SyncEvent) -> None:
        n = len(self.sync.sync_records)
        if n == self._last_sync_len and not self._sync_stalled:
            self._trip_sync_stall(event.tsc)
        self._last_sync_len = n

    def on_run_end(self, tsc: int) -> None:
        if self.pt.shedding:
            self._close_shed(tsc)
        # Fold the final partial window into the smoothed estimate so a
        # run ending mid-window still reports its tail.
        window = self._window_overhead(tsc)
        if window is not None and tsc - self._window_start_tsc >= \
                self.config.decision_ticks:
            alpha = self.config.smoothing
            self._smoothed = (window if self._smoothed is None
                              else alpha * window
                              + (1.0 - alpha) * self._smoothed)
            self.report.final_overhead = self._smoothed
        self.report.final_period = (
            0 if self.engine.disabled else self.engine.period
        )
        self.report.final_tier = self.tier
