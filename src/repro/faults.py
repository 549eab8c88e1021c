"""Deterministic fault injection: degrade trace bundles like real PMUs do.

ProRace's driver redesign (§4.1) exists because production PEBS/PT
tracing *loses data*: buffer overflows discard whole sample bursts, PT
emits OVF packets and resynchronizes, a crashing application truncates
its synchronization log mid-write, cross-core TSC drift skews
timestamps, and trace files rot on disk.  This module reproduces each of
those failure modes as a seeded, reproducible transformation of a
:class:`~repro.tracing.bundle.TraceBundle`, so every offline-stage
consumer can be tested — and measured — under exactly the inputs a
production deployment would hand it.

A :class:`FaultPlan` is pure: ``apply`` never mutates its input bundle;
it returns a degraded copy carrying a
:class:`~repro.tracing.bundle.TraceDefects` record of everything that
was lost.  The same (plan, bundle) pair always produces the same
degraded bundle, so fault scenarios are as replayable as the traces
themselves.

Fault models:

* **PEBS overflow bursts** — samples vanish in whole-buffer units, not
  individually: the kernel throttle of
  :meth:`~repro.pmu.drivers.DriverAccounting.on_buffer_full` drops a
  full DS segment at a time.  Bursts are grouped per core at the
  driver's ``segment_records`` granularity and the cloned accounting is
  updated through :meth:`~repro.pmu.drivers.DriverAccounting.record_fault_drop`,
  so trace-byte and cost-model arithmetic stay consistent.
* **PT gaps** — a contiguous packet span per thread is replaced by one
  explicit ``OVF`` marker carrying the lost span's timestamp range,
  exactly how real PT reports aux-buffer overflow.
* **Crash truncation** — the sync and alloc logs lose their common tail
  past a cut timestamp (a crashed app never flushes its last records).
* **TSC perturbation** — a fraction of sample timestamps jitter by a few
  ticks (cross-core TSC drift), clamped to preserve each thread's
  per-thread sample order.
* **Clock faults** — per-core constant skew, linear frequency drift,
  migration step discontinuities, and non-monotonic regressions, applied
  to *every* timestamped record through :mod:`repro.clock.faults`.
  Unlike bounded jitter these are unclamped, structured disturbances the
  reconciliation pass (:mod:`repro.clock`) must undo.
* **Byte corruption** — :func:`corrupt_trace_file` flips bytes inside
  one on-disk container section, for exercising salvage loading
  (``read_trace(..., allow_partial=True)``).
"""

from __future__ import annotations

import copy
import random
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .pmu.pt import PTThreadTrace
from .pmu.records import PEBSSample
from .tracing.bundle import TraceBundle, TraceDefects

#: Maximum timestamp jitter (ticks) applied by TSC perturbation.
MAX_TSC_JITTER = 2


@dataclass(frozen=True)
class FaultPlan:
    """A seeded recipe for degrading one trace bundle.

    Each field is an intensity in [0, 1]; zero disables that fault.

    Args:
        seed: drives every random choice; one seed fully determines the
            degradation (given the bundle).
        sample_drop: probability that each per-core DS-segment burst of
            PEBS samples is discarded.
        pt_gap: fraction of each thread's PT packet stream swallowed by
            one OVF gap (threads with too few packets are left alone).
        log_truncation: fraction of the combined sync+alloc log tail
            lost to a simulated crash.
        tsc_jitter: probability that each sample's timestamp is
            perturbed by up to ±``MAX_TSC_JITTER`` ticks.
        clock_skew: per-core constant TSC offset intensity (ticks scale
            with :data:`repro.clock.faults.SKEW_OFFSET_SCALE`).
        clock_drift: per-core linear frequency-drift intensity.
        clock_step: per-core migration-style step-discontinuity
            intensity (one seeded jump per core).
        clock_regress: per-record probability of a non-monotonic
            timestamp regression.
    """

    seed: int = 0
    sample_drop: float = 0.0
    pt_gap: float = 0.0
    log_truncation: float = 0.0
    tsc_jitter: float = 0.0
    clock_skew: float = 0.0
    clock_drift: float = 0.0
    clock_step: float = 0.0
    clock_regress: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sample_drop", "pt_gap", "log_truncation",
                     "tsc_jitter", "clock_skew", "clock_drift",
                     "clock_step", "clock_regress"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")

    @property
    def intensity(self) -> float:
        """The strongest enabled fault's intensity."""
        return max(self.sample_drop, self.pt_gap, self.log_truncation,
                   self.tsc_jitter, self.clock_skew, self.clock_drift,
                   self.clock_step, self.clock_regress)

    @property
    def clock_intensity(self) -> float:
        """The strongest enabled *clock* fault's intensity."""
        return max(self.clock_skew, self.clock_drift, self.clock_step,
                   self.clock_regress)

    # ------------------------------------------------------------------

    def apply(self, bundle: TraceBundle) -> Tuple[TraceBundle, TraceDefects]:
        """Return a degraded copy of *bundle* plus the injection record.

        The input bundle is never mutated.  The returned bundle carries
        the same :class:`TraceDefects` object in its ``defects`` field.
        """
        rng = random.Random(self.seed)
        defects = TraceDefects()
        if bundle.defects is not None:
            defects = copy.deepcopy(bundle.defects)

        samples = list(bundle.samples)
        accounting = copy.deepcopy(bundle.pebs_accounting)
        pt_traces = dict(bundle.pt_traces)
        sync_records = list(bundle.sync_records)
        alloc_records = list(bundle.alloc_records)

        if self.sample_drop > 0.0:
            samples = self._drop_sample_bursts(
                rng, samples, accounting, defects
            )
        if self.pt_gap > 0.0:
            pt_traces = self._inject_pt_gaps(rng, pt_traces, defects)
        if self.log_truncation > 0.0:
            sync_records, alloc_records = self._truncate_logs(
                rng, sync_records, alloc_records, defects
            )
        if self.tsc_jitter > 0.0:
            samples = self._perturb_tscs(rng, samples, defects)

        degraded = replace(
            bundle,
            samples=samples,
            pt_traces=pt_traces,
            sync_records=sync_records,
            alloc_records=alloc_records,
            pebs_accounting=accounting,
            defects=defects,
            _sample_index=None,
            _sample_index_key=None,
        )
        if self.clock_intensity > 0.0:
            from .clock.faults import inject_clock_faults

            degraded, stats = inject_clock_faults(
                degraded, self.clock_skew, self.clock_drift,
                self.clock_step, self.clock_regress, self.seed,
            )
            defects.clock_skewed_cores += stats.skewed_cores
            defects.clock_drifted_cores += stats.drifted_cores
            defects.clock_steps += stats.steps
            defects.clock_regressions += stats.regressions
        return degraded, defects

    # ------------------------------------------------------------------
    # Individual fault models
    # ------------------------------------------------------------------

    def _drop_sample_bursts(
        self,
        rng: random.Random,
        samples: List[PEBSSample],
        accounting,
        defects: TraceDefects,
    ) -> List[PEBSSample]:
        """Discard whole per-core DS-segment bursts of samples."""
        burst_size = max(1, accounting.segment_records)
        per_core: Dict[int, List[PEBSSample]] = {}
        for sample in samples:
            per_core.setdefault(sample.core, []).append(sample)
        dropped_ids = set()
        for core in sorted(per_core):
            burst: List[PEBSSample] = []
            bursts = [
                per_core[core][i:i + burst_size]
                for i in range(0, len(per_core[core]), burst_size)
            ]
            for burst in bursts:
                if rng.random() < self.sample_drop:
                    dropped_ids.update(id(s) for s in burst)
                    accounting.record_fault_drop(len(burst))
                    defects.samples_dropped += len(burst)
                    defects.drop_bursts += 1
        if not dropped_ids:
            return samples
        return [s for s in samples if id(s) not in dropped_ids]

    def _inject_pt_gaps(
        self,
        rng: random.Random,
        pt_traces: Dict[int, PTThreadTrace],
        defects: TraceDefects,
    ) -> Dict[int, PTThreadTrace]:
        """Replace one packet span per thread with an OVF marker."""
        degraded: Dict[int, PTThreadTrace] = {}
        for tid in sorted(pt_traces):
            trace = pt_traces[tid]
            count = len(trace)
            length = max(1, int(count * self.pt_gap))
            # Too short a stream carries no meaningful span to lose.
            if count < 4 or length >= count:
                degraded[tid] = trace
                continue
            start = rng.randrange(0, count - length)
            degraded[tid] = trace.with_gap(start, start + length)
            defects.pt_gaps += 1
            defects.pt_packets_lost += length
        return degraded

    def _truncate_logs(
        self,
        rng: random.Random,
        sync_records: list,
        alloc_records: list,
        defects: TraceDefects,
    ) -> Tuple[list, list]:
        """Cut the common tail off the sync+alloc logs (crashed app)."""
        combined = sorted(
            [r.tsc for r in sync_records] + [r.tsc for r in alloc_records]
        )
        if not combined:
            return sync_records, alloc_records
        lost = max(1, int(len(combined) * self.log_truncation))
        cutoff = combined[len(combined) - lost] - 1
        kept_sync = [r for r in sync_records if r.tsc <= cutoff]
        kept_alloc = [r for r in alloc_records if r.tsc <= cutoff]
        defects.sync_records_lost += len(sync_records) - len(kept_sync)
        defects.alloc_records_lost += len(alloc_records) - len(kept_alloc)
        previous = defects.log_truncated_at_tsc
        defects.log_truncated_at_tsc = (
            cutoff if previous is None else min(previous, cutoff)
        )
        return kept_sync, kept_alloc

    def _perturb_tscs(
        self,
        rng: random.Random,
        samples: List[PEBSSample],
        defects: TraceDefects,
    ) -> List[PEBSSample]:
        """Jitter sample timestamps, preserving per-thread order."""
        last_tsc: Dict[int, int] = {}
        result: List[PEBSSample] = []
        for sample in samples:
            tsc = sample.tsc
            if rng.random() < self.tsc_jitter:
                delta = rng.choice([-2, -1, 1, 2][:2 * MAX_TSC_JITTER])
                tsc = max(0, tsc + delta)
                defects.tsc_perturbed += 1
            floor = last_tsc.get(sample.tid)
            if floor is not None and tsc < floor:
                tsc = floor
            last_tsc[sample.tid] = tsc
            result.append(
                sample if tsc == sample.tsc else replace(sample, tsc=tsc)
            )
        return result


@dataclass(frozen=True)
class LoadBurstPlan:
    """A seeded recipe for bursty *load* on the online tracing path.

    Where :class:`FaultPlan` degrades a finished bundle and
    :class:`WorkerFaultPlan` perturbs analysis workers, this plan
    stresses the **online stage while it runs**: during seeded burst
    windows every retired memory access counts as ``multiplier``
    monitored events, modelling an application phase that retires
    monitored events that much faster — DS buffers fill in a fraction of
    the wall-clock gap, the kernel throttle of
    :meth:`~repro.pmu.drivers.DriverAccounting.on_buffer_full` starts
    discarding whole segments (the §7.3 inversion), and a fixed-period
    run silently bleeds samples.  It is the load pattern the tracing
    governor (:mod:`repro.pmu.governor`) exists to absorb.

    The plan is pure: ``weight(tsc)`` is a function of (seed, tsc) only,
    and the plan never perturbs the application schedule — a run with
    and without the plan executes identical instructions, so governed /
    ungoverned / unloaded runs are directly comparable.

    Args:
        seed: drives the per-cycle burst placement.
        multiplier: event weight inside a burst (1 = no burst).
        burst_ticks: burst duration in TSC ticks.
        gap_ticks: quiet span per cycle; each cycle is
            ``burst_ticks + gap_ticks`` long and contains one burst.
        jitter: fraction of the quiet span over which the burst's start
            is randomly (seeded) displaced per cycle.
        stall_pebs_at: optionally wedge the PEBS engine at this TSC
            (it silently stops sampling) — the governor watchdog's prey.
        stall_sync_at: optionally wedge the sync tracer at this TSC.
    """

    seed: int = 0
    multiplier: int = 8
    burst_ticks: int = 600
    gap_ticks: int = 1400
    jitter: float = 0.5
    stall_pebs_at: Optional[int] = None
    stall_sync_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if self.burst_ticks < 1 or self.gap_ticks < 0:
            raise ValueError("need burst_ticks >= 1 and gap_ticks >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    @property
    def cycle_ticks(self) -> int:
        return self.burst_ticks + self.gap_ticks

    def burst_range(self, cycle: int) -> Tuple[int, int]:
        """The half-open TSC range of *cycle*'s burst (seeded jitter)."""
        base = cycle * self.cycle_ticks
        offset = 0
        if self.jitter > 0.0 and self.gap_ticks > 0:
            rng = random.Random((self.seed * 1_000_003 + cycle) * 8_191)
            offset = int(rng.random() * self.jitter * self.gap_ticks)
        return base + offset, base + offset + self.burst_ticks

    def weight(self, tsc: int) -> int:
        """Monitored-event weight of one retired access at *tsc* —
        ``multiplier`` inside the covering cycle's burst, else 1."""
        start, end = self.burst_range(tsc // self.cycle_ticks)
        return self.multiplier if start <= tsc < end else 1

    def segment(self, tsc: int) -> Tuple[int, int]:
        """``(weight(tsc), until)``: the weight holds from *tsc* up to,
        not including, *until*, the next burst boundary."""
        cycle = tsc // self.cycle_ticks
        start, end = self.burst_range(cycle)
        if tsc < start:
            return 1, start
        if tsc < end:
            return self.multiplier, end
        return 1, (cycle + 1) * self.cycle_ticks


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A seeded recipe for misbehaving *workers* (the runtime layer,
    where :class:`FaultPlan` is the trace layer): kill, hang, or fail
    analysis workers on a deterministic schedule so the supervisor in
    :mod:`repro.supervise` can be tested — and demonstrated — under the
    machine failures §7.6's dedicated analysis fleet actually meets.

    Each probability is per *work item*; the decision for a given
    (index, attempt) is a pure function of the seed, so two runs of the
    same chaos scenario perturb exactly the same items.  By default only
    the first ``max_faulty_attempts`` attempts of an item can be
    perturbed — retries then converge, which is what makes the
    bit-identical-to-serial property hold under any plan.

    Args:
        seed: drives every decision.
        kill: probability an item's worker is SIGKILLed (process
            executor) or crashes with
            :class:`~repro.errors.WorkerCrash` (thread/inline, where a
            real SIGKILL would take the supervisor down too).
        hang: probability an item's worker sleeps ``hang_seconds``
            before working — paired with a per-item timeout this
            exercises the kill-and-retry path.
        fail: probability an item's worker raises
            :class:`~repro.errors.ReplayError`.
        max_faulty_attempts: attempts of each item eligible for
            perturbation (0 disables all faults; large values can make
            an item permanently faulty, exercising quarantine).
        hang_seconds: how long a hung worker sleeps.
    """

    seed: int = 0
    kill: float = 0.0
    hang: float = 0.0
    fail: float = 0.0
    max_faulty_attempts: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        for name in ("kill", "hang", "fail"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")

    def action(self, index: int, attempt: int) -> Optional[str]:
        """``"kill"`` / ``"hang"`` / ``"fail"`` / None for this item
        attempt — deterministic given the seed.  Explicit integer
        arithmetic (not ``hash``) so the decision is identical in every
        worker process."""
        if attempt > self.max_faulty_attempts:
            return None
        rng = random.Random(
            (self.seed * 1_000_003 + index) * 8_191 + attempt
        )
        draw = rng.random()
        if draw < self.kill:
            return "kill"
        if draw < self.kill + self.hang:
            return "hang"
        if draw < self.kill + self.hang + self.fail:
            return "fail"
        return None

    def perturb(self, index: int, attempt: int,
                in_process: bool) -> None:
        """Execute this attempt's scheduled fault (no-op when none).

        Called from inside the worker.  *in_process* says the worker is
        an isolated child process where a genuine SIGKILL is safe; in a
        thread or inline worker the kill is simulated by raising
        :class:`~repro.errors.WorkerCrash` instead.
        """
        act = self.action(index, attempt)
        if act is None:
            return
        if act == "kill":
            if in_process:
                import os
                import signal

                os.kill(os.getpid(), signal.SIGKILL)
            from .errors import WorkerCrash

            raise WorkerCrash(
                f"simulated worker kill (item {index}, attempt {attempt})",
                index=index,
            )
        if act == "hang":
            import time

            time.sleep(self.hang_seconds)
            return
        from .errors import ReplayError

        raise ReplayError(
            f"injected worker failure (item {index}, attempt {attempt})"
        )


# ---------------------------------------------------------------------------
# Built-in plans and on-disk corruption
# ---------------------------------------------------------------------------


#: Names of the built-in single-fault (plus combined) plan shapes.
BUILTIN_PLAN_NAMES = (
    "pebs-overflow", "pt-gap", "crash-truncation", "tsc-jitter", "combined",
)


def builtin_plans(intensity: float, seed: int = 0) -> Dict[str, FaultPlan]:
    """The standard plan suite at one intensity: each hardware failure
    mode in isolation, plus all of them together."""
    return {
        "pebs-overflow": FaultPlan(seed=seed, sample_drop=intensity),
        "pt-gap": FaultPlan(seed=seed, pt_gap=intensity),
        "crash-truncation": FaultPlan(seed=seed, log_truncation=intensity),
        "tsc-jitter": FaultPlan(seed=seed, tsc_jitter=intensity),
        "combined": FaultPlan(
            seed=seed, sample_drop=intensity, pt_gap=intensity,
            log_truncation=intensity, tsc_jitter=intensity,
        ),
    }


#: Names of the built-in *clock*-fault plan shapes (kept separate from
#: :data:`BUILTIN_PLAN_NAMES`: the classic suite exercises data loss,
#: this one exercises adversarial time).
CLOCK_PLAN_NAMES = (
    "clock-skew", "clock-drift", "clock-step", "clock-regress",
    "clock-combined",
)


def clock_plans(intensity: float, seed: int = 0) -> Dict[str, FaultPlan]:
    """The clock-fault plan suite at one intensity: each clock pathology
    in isolation, plus all of them together."""
    return {
        "clock-skew": FaultPlan(seed=seed, clock_skew=intensity),
        "clock-drift": FaultPlan(seed=seed, clock_drift=intensity),
        "clock-step": FaultPlan(seed=seed, clock_step=intensity),
        "clock-regress": FaultPlan(seed=seed, clock_regress=intensity),
        "clock-combined": FaultPlan(
            seed=seed, clock_skew=intensity, clock_drift=intensity,
            clock_step=intensity, clock_regress=intensity,
        ),
    }


_HEADER = struct.Struct("<4sHHI")
_SECTION = struct.Struct("<IQ")
_SECTION_V2 = struct.Struct("<IQI")


def corrupt_trace_bytes(
    blob: bytes,
    seed: int = 0,
    section_index: Optional[int] = None,
    flips: int = 8,
) -> Tuple[bytes, int]:
    """Flip bytes inside one section payload of serialized trace bytes.

    Neither the section CRC nor the file trailer is repaired — that is
    the point: a strict ``read_trace`` must reject the blob, and salvage
    loading must recover everything *except* the damaged section.
    Returns ``(corrupted_bytes, section_index)``.
    """
    data = bytearray(blob)
    magic, version, _flags, section_count = _HEADER.unpack_from(data, 0)
    section_struct = _SECTION_V2 if version >= 2 else _SECTION
    rng = random.Random(seed)
    if section_index is None:
        section_index = rng.randrange(section_count)
    offset = _HEADER.size
    for index in range(section_count):
        fields = section_struct.unpack_from(data, offset)
        length = fields[1]
        offset += section_struct.size
        if index == section_index:
            if length == 0:
                raise ValueError(f"section {index} is empty")
            for _ in range(max(1, flips)):
                position = offset + rng.randrange(length)
                data[position] ^= 0xFF
            break
        offset += length
    return bytes(data), section_index


def corrupt_trace_file(
    path: Path | str,
    seed: int = 0,
    section_index: Optional[int] = None,
    flips: int = 8,
) -> int:
    """:func:`corrupt_trace_bytes` applied to an on-disk trace file;
    returns the index of the corrupted section."""
    path = Path(path)
    blob, section_index = corrupt_trace_bytes(
        path.read_bytes(), seed=seed, section_index=section_index,
        flips=flips,
    )
    path.write_bytes(blob)
    return section_index
