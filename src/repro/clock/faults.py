"""Adversarial time: first-class clock faults for the fault plan.

Extends `repro.faults` beyond bounded jitter with the clock pathologies
production machines actually exhibit, all expressed as a disturbance of
the *per-core* TSC the simulated machine reads:

* **skew** — a constant per-core offset (unsynchronized TSC bases);
* **drift** — a linear per-core frequency error;
* **step** — a migration-style discontinuity: the core's clock jumps
  by a constant at one point in the run;
* **regress** — occasional non-monotonic regressions of individual
  reads (SMIs, broken TSC sync after deep sleep).

Injection is *pure*, exactly like every other `FaultPlan` family: the
machine and its schedule are untouched — the same execution merely gets
re-timestamped through each core's faulty clock, and the disturbance is
recorded in ``TraceDefects`` provenance.  Every record a core stamped
goes through the same map (PEBS samples, sync/alloc log entries, PT
packets and their stream headers), so per-thread streams stay mutually
consistent under skew and drift; only *cross-core* comparisons lie —
which is precisely the failure mode the reconciliation side
(`repro.clock.model`) has to survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Tuple

from .model import core_of_map

#: Ticks of constant offset at full skew intensity (uniform in
#: ``[-scale, scale]`` per core).
SKEW_OFFSET_SCALE = 200
#: Fractional frequency error at full drift intensity.
DRIFT_RATE_SCALE = 0.05
#: Ticks of step discontinuity at full step intensity.
STEP_JUMP_SCALE = 120
#: Worst regression depth (ticks) at full regress intensity.
REGRESS_DEPTH_SCALE = 40


@dataclass(frozen=True)
class CoreClockFault:
    """One core's disturbed clock: ``observed = offset + (1 + rate) *
    true + jumps active at true``."""

    core: int
    offset: int = 0
    rate: float = 0.0
    #: ``(position, jump)`` pairs; a jump applies to reads at or past
    #: its position in true time.
    steps: Tuple[Tuple[int, int], ...] = ()

    @property
    def disturbed(self) -> bool:
        return bool(self.offset or self.rate or self.steps)

    def observe(self, tsc: int) -> int:
        value = self.offset + (1.0 + self.rate) * tsc
        for position, jump in self.steps:
            if tsc >= position:
                value += jump
        return int(round(value))


@dataclass(frozen=True)
class ClockFaultStats:
    """What the injected clock faults amounted to — the declared side
    of the clock ledger (``TraceDefects``)."""

    skewed_cores: int = 0
    drifted_cores: int = 0
    steps: int = 0
    regressions: int = 0

    @property
    def any(self) -> bool:
        return bool(self.skewed_cores or self.drifted_cores
                    or self.steps or self.regressions)


def plan_core_faults(num_cores: int, skew: float, drift: float,
                     step: float, horizon: int,
                     seed: int) -> Tuple[CoreClockFault, ...]:
    """The seeded per-core disturbance plan.  Each core draws from its
    own stream, so adding cores never reshuffles existing ones."""
    faults = []
    for core in range(num_cores):
        rng = random.Random(seed * 9_176_521 + core * 7919)
        offset = 0
        if skew:
            offset = int(round(rng.uniform(-1.0, 1.0)
                               * skew * SKEW_OFFSET_SCALE))
        rate = rng.uniform(-1.0, 1.0) * drift * DRIFT_RATE_SCALE \
            if drift else 0.0
        steps: Tuple[Tuple[int, int], ...] = ()
        if step:
            jump = max(1, int(round(step * STEP_JUMP_SCALE)))
            if rng.random() < 0.5:
                jump = -jump
            steps = ((rng.randrange(max(1, horizon)), jump),)
        faults.append(CoreClockFault(core=core, offset=offset, rate=rate,
                                     steps=steps))
    return tuple(faults)


class _Regressor:
    """Per-stream regression injector: each record stream draws from
    its own seeded generator, so streams degrade independently and
    reproducibly."""

    def __init__(self, seed: int, intensity: float):
        self.intensity = intensity
        self.depth = max(1, int(round(intensity * REGRESS_DEPTH_SCALE)))
        self.seed = seed
        self.count = 0

    def stream(self, key: int):
        rng = random.Random(self.seed * 6_700_417 + key * 2_147_483_647)

        def disturb(tsc: int) -> int:
            if self.intensity and rng.random() < self.intensity:
                self.count += 1
                return tsc - rng.randrange(1, self.depth + 1)
            return tsc

        return disturb


def inject_clock_faults(bundle, skew: float, drift: float, step: float,
                        regress: float, seed: int):
    """Re-timestamp every record of *bundle* through per-core faulty
    clocks.  Pure: returns ``(disturbed_bundle, ClockFaultStats)``,
    the input untouched."""
    cores = core_of_map(bundle)
    num_cores = max(list(cores.values()) + [3]) + 1
    horizon = max(1, bundle.run.tsc)
    plan = plan_core_faults(num_cores, skew, drift, step, horizon, seed)
    regressor = _Regressor(seed, regress)

    def clock_for(core: int) -> CoreClockFault:
        return plan[core % len(plan)]

    # Stream keys: one generator per (record family, thread) so
    # regressions never correlate across streams.
    samples = []
    sample_streams: Dict[int, object] = {}
    for sample in bundle.samples:
        disturb = sample_streams.get(sample.tid)
        if disturb is None:
            disturb = sample_streams[sample.tid] = regressor.stream(
                sample.tid * 4 + 0)
        samples.append(replace(
            sample, tsc=disturb(clock_for(sample.core).observe(sample.tsc))
        ))

    sync_records = []
    sync_streams: Dict[int, object] = {}
    for record in bundle.sync_records:
        disturb = sync_streams.get(record.tid)
        if disturb is None:
            disturb = sync_streams[record.tid] = regressor.stream(
                record.tid * 4 + 1)
        core = cores.get(record.tid, record.tid % num_cores)
        sync_records.append(replace(
            record, tsc=disturb(clock_for(core).observe(record.tsc))
        ))

    alloc_records = []
    alloc_streams: Dict[int, object] = {}
    for record in bundle.alloc_records:
        disturb = alloc_streams.get(record.tid)
        if disturb is None:
            disturb = alloc_streams[record.tid] = regressor.stream(
                record.tid * 4 + 2)
        core = cores.get(record.tid, record.tid % num_cores)
        alloc_records.append(replace(
            record, tsc=disturb(clock_for(core).observe(record.tsc))
        ))

    pt_traces = {}
    for tid, trace in bundle.pt_traces.items():
        clock = clock_for(cores.get(tid, tid % num_cores))
        disturb = regressor.stream(tid * 4 + 3)
        # Packet TSCs regress too; the stream's start and end and its
        # OVF gap ends only pass through the core's clock.
        pt_traces[tid] = trace.retimed(
            clock.observe, lambda tsc: disturb(clock.observe(tsc)))

    stats = ClockFaultStats(
        skewed_cores=sum(1 for fault in plan if fault.offset),
        drifted_cores=sum(1 for fault in plan if fault.rate),
        steps=sum(len(fault.steps) for fault in plan),
        regressions=regressor.count,
    )
    disturbed = replace(
        bundle, samples=samples, sync_records=sync_records,
        alloc_records=alloc_records, pt_traces=pt_traces,
        _sample_index=None, _sample_index_key=None,
    )
    return disturbed, stats
