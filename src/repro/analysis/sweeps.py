"""Experiment sweeps as a library API.

The benchmark harness regenerates the paper's figures; this module
exposes the same sweeps programmatically, for notebooks, the CLI, and
downstream studies: overhead-vs-period (Figures 6–7, 10), trace-rate-vs-
period (Figures 8–9), and detection-probability-vs-period (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..detector.registry import DEFAULT_DETECTOR, resolve_detectors
from ..pmu.drivers import DriverModel, PRORACE_DRIVER
from ..supervise import RunLedger, SupervisorConfig, open_journal, supervised_map
from ..tracing.bundle import trace_run
from ..workloads.common import Workload, WorkloadScale
from ..workloads.racebugs import RaceBug
from .costs import estimate_overhead, trace_rate_mb_per_s
from .metrics import geometric_mean
from .pipeline import OfflinePipeline

DEFAULT_PERIODS: Tuple[int, ...] = (10, 100, 1_000, 10_000, 100_000)


@dataclass
class SweepResult:
    """A (workload × period) grid of one scalar metric."""

    metric: str
    periods: Tuple[int, ...]
    #: workload name -> period -> value.
    cells: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def geomeans(self) -> Dict[int, float]:
        """Per-period geometric mean across workloads (the paper's
        aggregate).  Overhead cells are geomeaned as normalized runtimes
        (1+overhead) and converted back."""
        result = {}
        for period in self.periods:
            values = [row[period] for row in self.cells.values()]
            if self.metric == "overhead":
                result[period] = geometric_mean(
                    [1 + v for v in values]
                ) - 1
            else:
                result[period] = geometric_mean(values)
        return result

    def render(self) -> str:
        header = f"{'workload':16s}" + "".join(
            f"{p:>12d}" for p in self.periods
        )
        lines = [f"[{self.metric}]", header, "-" * len(header)]
        for name in sorted(self.cells):
            row = self.cells[name]
            lines.append(
                f"{name:16s}"
                + "".join(f"{row[p]:12.4f}" for p in self.periods)
            )
        geo = self.geomeans()
        lines.append("-" * len(header))
        lines.append(
            f"{'geomean':16s}"
            + "".join(f"{geo[p]:12.4f}" for p in self.periods)
        )
        return "\n".join(lines)


def overhead_sweep(
    workloads: Mapping[str, Workload],
    scale: WorkloadScale,
    periods: Sequence[int] = DEFAULT_PERIODS,
    driver: DriverModel = PRORACE_DRIVER,
    seed: int = 1,
) -> SweepResult:
    """Estimated runtime overhead per workload per sampling period."""
    result = SweepResult(metric="overhead", periods=tuple(periods))
    for name, workload in workloads.items():
        program = workload.instantiate(scale)
        row = {}
        for period in periods:
            bundle = trace_run(program, period=period, driver=driver,
                               seed=seed)
            row[period] = estimate_overhead(bundle).overhead
        result.cells[name] = row
    return result


def tracesize_sweep(
    workloads: Mapping[str, Workload],
    scale: WorkloadScale,
    periods: Sequence[int] = DEFAULT_PERIODS,
    driver: DriverModel = PRORACE_DRIVER,
    seed: int = 1,
) -> SweepResult:
    """PMU trace generation rate (MB/s) per workload per period."""
    result = SweepResult(metric="trace_mb_per_s", periods=tuple(periods))
    for name, workload in workloads.items():
        program = workload.instantiate(scale)
        row = {}
        for period in periods:
            bundle = trace_run(program, period=period, driver=driver,
                               seed=seed)
            row[period] = trace_rate_mb_per_s(bundle)
        result.cells[name] = row
    return result


@dataclass
class DetectionSweepResult:
    """Detection probability per bug per period for one detector config."""

    detector: str
    runs: int
    periods: Tuple[int, ...]
    #: bug name -> period -> detections.
    cells: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: The supervised run's accounting (None only for a result built
    #: by hand).
    ledger: Optional[RunLedger] = None

    def totals(self) -> Dict[int, int]:
        return {
            period: sum(row[period] for row in self.cells.values())
            for period in self.periods
        }

    def to_dict(self) -> dict:
        """JSON-ready form.  ``cells``/``totals`` are the deterministic
        payload (what the resume smoke compares); the ledger is runtime
        accounting and varies with the faults met."""
        return {
            "detector": self.detector,
            "runs": self.runs,
            "periods": list(self.periods),
            "cells": {
                name: {str(p): row[p] for p in self.periods}
                for name, row in self.cells.items()
            },
            "totals": {str(p): t for p, t in self.totals().items()},
            "run_ledger": (
                self.ledger.to_dict() if self.ledger is not None else None
            ),
        }

    def render(self) -> str:
        header = f"{'bug':18s}" + "".join(
            f"{p:>10d}" for p in self.periods
        )
        lines = [f"[{self.detector}, out of {self.runs} runs]", header,
                 "-" * len(header)]
        for name in self.cells:
            row = self.cells[name]
            lines.append(
                f"{name:18s}"
                + "".join(f"{row[p]:10d}" for p in self.periods)
            )
        totals = self.totals()
        lines.append("-" * len(header))
        lines.append(
            f"{'total':18s}"
            + "".join(f"{totals[p]:10d}" for p in self.periods)
        )
        if self.ledger is not None and self.ledger.eventful:
            lines.append(self.ledger.render())
        return "\n".join(lines)


def _run_detection_trial(work: tuple) -> int:
    """Module-level trial worker (picklable for the process executor).

    One (bug, period, seed) cell contribution: trace, analyze, return
    whether the planted race was detected.  Workers keep the pipeline
    serial — the parallelism budget is spent across trials.
    """
    program, bug, period, seed, mode, driver, detectors = work
    bundle = trace_run(program, period=period, driver=driver, seed=seed)
    analysis = OfflinePipeline(program, mode=mode,
                               detectors=detectors).analyze(bundle)
    return int(bug.detected(program, analysis))


def detection_sweep(
    bugs: Mapping[str, RaceBug],
    scale: WorkloadScale,
    periods: Sequence[int],
    runs: int,
    mode: str = "full",
    driver: DriverModel = PRORACE_DRIVER,
    detector_name: Optional[str] = None,
    jobs: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    fault_plan=None,
    checkpoint_dir: Optional[Path | str] = None,
    resume: bool = False,
    detectors: Sequence[str] = (DEFAULT_DETECTOR,),
) -> DetectionSweepResult:
    """Table 2's methodology over an arbitrary bug set.

    *detectors* selects the registry backends each trial's pipeline runs
    (first = primary, whose verdicts score detection); names validate
    eagerly, before any trial is traced.

    The bug × period × seed grid is embarrassingly parallel (every trial
    is an independent trace + analysis), so the whole flattened grid
    fans out through :func:`~repro.supervise.supervised_map` at once,
    over *jobs* worker processes.  Results fold back in grid order,
    making the sweep bit-identical to the serial one.

    *supervisor* is the retry/timeout/deadline policy (None runs each
    trial once, and a failing trial raises
    :class:`~repro.errors.QuarantinedWork`); *fault_plan* perturbs the
    workers; completed trials are journaled to *checkpoint_dir*, and
    *resume* restores journaled trials instead of re-running them.  The
    returned result carries the :class:`RunLedger`.
    """
    detectors = resolve_detectors(detectors)
    default_label = f"{driver.name}/{mode}"
    if detectors != (DEFAULT_DETECTOR,):
        default_label += "/" + "+".join(detectors)
    work = []
    for name, bug in bugs.items():
        program = bug.build(scale)
        for period in periods:
            for seed in range(runs):
                work.append(
                    (program, bug, period, seed, mode, driver, detectors)
                )
    key = "|".join(str(part) for part in (
        sorted(bugs), scale, tuple(periods), runs, mode, driver.name,
        detectors,
    ))
    journal = open_journal(checkpoint_dir, "sweep", key, resume)
    try:
        hits, ledger = supervised_map(
            _run_detection_trial, work, jobs=jobs, config=supervisor,
            fault_plan=fault_plan, journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    result = DetectionSweepResult(
        detector=detector_name or default_label,
        runs=runs,
        periods=tuple(periods),
        ledger=ledger,
    )
    cursor = 0
    for name in bugs:
        row = {}
        for period in periods:
            row[period] = sum(hits[cursor:cursor + runs])
            cursor += runs
        result.cells[name] = row
    return result
