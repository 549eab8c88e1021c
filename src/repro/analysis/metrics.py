"""Experiment-level metrics: detection probability, recovery ratio,
offline-analysis overhead.

These are the quantities the paper's evaluation reports: Table 2's
per-bug detection probabilities (races detected over N seeded traces),
Figure 11's memory recovery ratios, and Figure 12's offline cost per
second of traced execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..isa.program import Program
from ..pmu.drivers import DriverModel, PRORACE_DRIVER
from ..supervise import supervised_map
from ..tracing.bundle import TraceBundle, trace_run
from .costs import SIMULATED_CLOCK_HZ
from .pipeline import OfflinePipeline


@dataclass
class DetectionTrial:
    """Outcome of one seeded trace + analysis."""

    seed: int
    detected: bool
    races: int
    samples: int


def wilson_interval(hits: int, runs: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The right uncertainty statement for Table 2 cells: detection counts
    over N seeded traces are binomial draws, and at the paper's N = 100
    (or this reproduction's quick-profile N = 10) the interval matters
    when comparing detectors.
    """
    if runs == 0:
        return (0.0, 1.0)
    p = hits / runs
    denominator = 1 + z * z / runs
    center = (p + z * z / (2 * runs)) / denominator
    margin = (
        z * math.sqrt(p * (1 - p) / runs + z * z / (4 * runs * runs))
        / denominator
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


@dataclass
class DetectionProbability:
    """Detection probability over many seeded runs (one Table 2 cell)."""

    trials: List[DetectionTrial] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.trials)

    @property
    def detections(self) -> int:
        return sum(1 for t in self.trials if t.detected)

    @property
    def probability(self) -> float:
        return self.detections / self.runs if self.trials else 0.0

    def expected_runs_to_detection(self) -> float:
        """Expected number of production runs until the first detection
        (geometric distribution) — the fleet-sizing quantity the paper's
        deployment story implies: at probability p, a race surfaces after
        ~1/p traced runs."""
        if self.probability == 0.0:
            return math.inf
        return 1.0 / self.probability


def _run_probability_trial(work: tuple) -> DetectionTrial:
    """Module-level trial worker (picklable where workers cannot fork).

    Each trial is fully independent: its own seeded trace and its own
    pipeline run.  The parallelism budget is spent at the trial level;
    each trial's analysis runs serially inside its worker.
    """
    program, targets, period, mode, driver, seed, num_cores, entry = work
    bundle = trace_run(
        program, period=period, driver=driver, seed=seed,
        num_cores=num_cores, entry=entry,
    )
    analysis = OfflinePipeline(program, mode=mode).analyze(bundle)
    return DetectionTrial(
        seed=seed,
        detected=bool(targets & analysis.racy_addresses),
        races=len(analysis.races),
        samples=len(bundle.samples),
    )


def measure_detection_probability(
    program: Program,
    racy_addresses: Iterable[int],
    period: int,
    runs: int = 100,
    mode: str = "full",
    driver: DriverModel = PRORACE_DRIVER,
    seed_base: int = 0,
    num_cores: int = 4,
    entry: str = "main",
    jobs: int = 1,
) -> DetectionProbability:
    """Run *runs* seeded traces and count those whose analysis reports a
    race on any of *racy_addresses* — the Table 2 methodology ("collected
    100 traces for each PEBS sampling period ... and counted how many
    times ProRace can report the data race").

    The seeded trials fan out through
    :func:`~repro.supervise.supervised_map` over *jobs* worker
    processes, each trial run once; results are folded back in seed
    order, so the returned trial list is bit-identical to the serial
    one.
    """
    targets = frozenset(racy_addresses)
    work = [
        (program, targets, period, mode, driver, seed_base + i,
         num_cores, entry)
        for i in range(runs)
    ]
    trials, _ledger = supervised_map(_run_probability_trial, work,
                                     jobs=jobs)
    return DetectionProbability(trials=trials)


@dataclass
class OfflineOverhead:
    """Offline analysis cost per second of traced execution (Figure 12)."""

    analysis_seconds: float
    execution_seconds: float
    breakdown: Dict[str, float]

    @property
    def overhead_per_execution_second(self) -> float:
        if self.execution_seconds == 0:
            return 0.0
        return self.analysis_seconds / self.execution_seconds


def measure_offline_overhead(
    program: Program, bundle: TraceBundle, mode: str = "full"
) -> OfflineOverhead:
    """Analyze *bundle* and report Figure 12's metric for it."""
    pipeline = OfflinePipeline(program, mode=mode)
    result = pipeline.analyze(bundle)
    return OfflineOverhead(
        analysis_seconds=result.timings.total_seconds,
        execution_seconds=bundle.run.tsc / SIMULATED_CLOCK_HZ,
        breakdown=result.timings.breakdown(),
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregate for overheads/sizes)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
