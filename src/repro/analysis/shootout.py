"""Precision/recall shoot-out across detector backends and baselines.

Table 2 gives each race bug a ground truth: the ``race_*``-labelled
instruction pair.  That makes the corpus a scoring harness — any
detector that emits instruction pairs can be graded on it:

* a reported pair whose both instructions lie in the bug's labelled set
  is a **true positive** (the planted race, correctly named);
* any other reported pair is a **false positive** for that run (filler
  traffic and bookkeeping accesses are race-free by construction);
* a (bug, seed) run whose planted race goes unreported is a miss.

``run_shootout`` grades every registry backend in *one* decode/replay
pass per trial — the pipeline feeds a single reconstructed event stream
to all backends side by side — then runs each whole-program baseline
(``racez``, ``literace``, ``datacollider``, ``pacer``) on its own terms,
and ranks everyone by F1.

Precision here is *pair precision* (ΣTP / Σreported pairs) and recall is
the *detection rate* (runs in which the planted race was reported, over
bugs × seeds) — the same definition as Table 2's detection probability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from ..detector.registry import resolve_detectors
from ..pmu.drivers import DriverModel, PRORACE_DRIVER
from ..supervise import supervised_map
from ..tracing.bundle import trace_run
from ..workloads.common import WorkloadScale
from ..workloads.racebugs import RaceBug
from .pipeline import OfflinePipeline

#: Registry backends a default shoot-out compares.
DEFAULT_SHOOTOUT_DETECTORS: Tuple[str, ...] = (
    "fasttrack", "o1", "predict", "lockset",
)

#: Whole-program baselines a default shoot-out compares.
DEFAULT_SHOOTOUT_BASELINES: Tuple[str, ...] = (
    "racez", "literace", "datacollider", "pacer",
)


def _normalize_pair(first_ip: int, second_ip: int) -> Tuple[int, int]:
    return (first_ip, second_ip) if first_ip <= second_ip else (
        second_ip, first_ip)


def grade_pairs(
    pairs: Sequence[Tuple[int, int]], targets: FrozenSet[int]
) -> Tuple[int, int, bool]:
    """Score reported instruction pairs against a bug's labelled set.

    Returns ``(true_positives, false_positives, detected)`` where
    *detected* means at least one pair lies entirely inside *targets*.
    """
    tp = fp = 0
    for first_ip, second_ip in pairs:
        if first_ip in targets and second_ip in targets:
            tp += 1
        else:
            fp += 1
    return tp, fp, tp > 0


@dataclass
class BackendScore:
    """Aggregate precision/recall for one contender."""

    name: str
    kind: str  # "backend" (registry) or "baseline"
    true_positives: int = 0
    false_positives: int = 0
    detections: int = 0
    trials: int = 0
    #: bug name -> runs in which its planted race was reported.
    per_bug: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def precision(self) -> float:
        reported = self.true_positives + self.false_positives
        # A silent detector reports nothing wrong; precision degenerates
        # to 1.0 so F1 ranks it purely on (zero) recall.
        return self.true_positives / reported if reported else 1.0

    @property
    def recall(self) -> float:
        return self.detections / self.trials if self.trials else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "detections": self.detections,
            "trials": self.trials,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "per_bug": dict(sorted(self.per_bug.items())),
            "seconds": round(self.seconds, 6),
        }


@dataclass
class ShootoutResult:
    """All contenders' scores over one corpus sweep."""

    bugs: Tuple[str, ...]
    runs: int
    period: int
    scores: Dict[str, BackendScore] = field(default_factory=dict)

    def ranked(self) -> List[BackendScore]:
        """Scores by descending F1, precision, recall; name breaks ties
        so the table is deterministic."""
        return sorted(
            self.scores.values(),
            key=lambda s: (-s.f1, -s.precision, -s.recall, s.name),
        )

    def render(self) -> str:
        header = (
            f"{'#':>2s}  {'contender':14s} {'kind':8s} "
            f"{'prec':>7s} {'recall':>7s} {'f1':>7s} "
            f"{'tp':>5s} {'fp':>5s} {'det':>7s}"
        )
        lines = [
            f"[shootout: {len(self.bugs)} bugs x {self.runs} runs, "
            f"period={self.period}]",
            header,
            "-" * len(header),
        ]
        for rank, score in enumerate(self.ranked(), start=1):
            lines.append(
                f"{rank:>2d}  {score.name:14s} {score.kind:8s} "
                f"{score.precision:7.3f} {score.recall:7.3f} "
                f"{score.f1:7.3f} "
                f"{score.true_positives:5d} {score.false_positives:5d} "
                f"{score.detections:4d}/{score.trials:<2d}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "bugs": list(self.bugs),
            "runs": self.runs,
            "period": self.period,
            "ranked": [score.to_dict() for score in self.ranked()],
        }

    def write_json(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


# -- per-trial workers (module-level: picklable for process executors) ----


def _backend_trial(work: tuple) -> Dict[str, Tuple[int, int, bool]]:
    """One (bug, seed) trial for all registry backends at once.

    Traces once, decodes/replays once, and feeds every backend from the
    same event stream — the shoot-out's whole point is that comparing N
    backends costs one reconstruction, not N.
    """
    program, bug, period, seed, mode, driver, detectors = work
    bundle = trace_run(program, period=period, driver=driver, seed=seed)
    result = OfflinePipeline(program, mode=mode,
                             detectors=detectors).analyze(bundle)
    targets = bug.racy_ips(program)
    graded = {}
    for name, findings in result.findings.items():
        pairs = [_normalize_pair(*report.pair) for report in findings.races]
        graded[name] = grade_pairs(pairs, targets)
    return graded


def _baseline_trial(work: tuple) -> Tuple[int, int, bool]:
    """One (bug, seed) trial for one whole-program baseline.

    Baselines cannot share the pipeline's event stream — each defines its
    own observation model (watchpoints, function sampling, windows) — so
    they run the program on their own terms.
    """
    program, bug, period, seed, baseline = work
    targets = bug.racy_ips(program)
    if baseline == "racez":
        from ..baselines.racez import RaceZ

        result = RaceZ().detect(program, period=period, seed=seed)
        pairs = [_normalize_pair(*report.pair) for report in result.races]
    elif baseline == "literace":
        from ..baselines.literace import run_literace

        observer = run_literace(program, seed=seed)
        pairs = [_normalize_pair(*report.pair)
                 for report in observer.detector.distinct_races()]
    elif baseline == "datacollider":
        from ..baselines.datacollider import run_datacollider

        collider = run_datacollider(program, period=period, seed=seed)
        pairs = list(collider.racy_ip_pairs())
    elif baseline == "pacer":
        from ..baselines.pacer import run_pacer

        observer = run_pacer(program, seed=seed)
        pairs = [_normalize_pair(*report.pair)
                 for report in observer.detector.distinct_races()]
    else:
        raise ValueError(f"unknown baseline: {baseline!r}")
    return grade_pairs(pairs, targets)


def run_shootout(
    bugs: Mapping[str, RaceBug],
    scale: WorkloadScale,
    period: int = 100,
    runs: int = 3,
    detectors: Sequence[str] = DEFAULT_SHOOTOUT_DETECTORS,
    baselines: Sequence[str] = DEFAULT_SHOOTOUT_BASELINES,
    mode: str = "full",
    driver: DriverModel = PRORACE_DRIVER,
    jobs: int = 1,
) -> ShootoutResult:
    """Grade registry backends and baselines over the race-bug corpus.

    Every (bug, seed) trial produces one trace; all *detectors* consume
    its reconstructed event stream in a single pipeline pass, while each
    *baseline* re-runs the program under its own observation model.
    Unknown detector names fail eagerly (exit-2 usage error at the CLI);
    unknown baseline names raise :class:`ValueError` before any work.
    Trials fan out through :func:`~repro.supervise.supervised_map` over
    *jobs* worker processes, each trial run once.
    """
    detectors = resolve_detectors(detectors)
    baselines = tuple(dict.fromkeys(baselines))
    for baseline in baselines:
        if baseline not in DEFAULT_SHOOTOUT_BASELINES:
            raise ValueError(
                f"unknown baseline {baseline!r} "
                f"(available: {', '.join(DEFAULT_SHOOTOUT_BASELINES)})"
            )
    result = ShootoutResult(bugs=tuple(bugs), runs=runs, period=period)
    for name in detectors:
        result.scores[name] = BackendScore(name=name, kind="backend")
    for name in baselines:
        result.scores[name] = BackendScore(name=name, kind="baseline")

    programs = {name: bug.build(scale) for name, bug in bugs.items()}

    import time

    backend_work = [
        (programs[name], bug, period, seed, mode, driver, detectors)
        for name, bug in bugs.items()
        for seed in range(runs)
    ]
    start = time.perf_counter()
    backend_graded, _ledger = supervised_map(_backend_trial, backend_work,
                                             jobs=jobs)
    backend_seconds = time.perf_counter() - start
    cursor = 0
    for bug_name in bugs:
        for _seed in range(runs):
            graded = backend_graded[cursor]
            cursor += 1
            for detector in detectors:
                tp, fp, detected = graded[detector]
                score = result.scores[detector]
                score.true_positives += tp
                score.false_positives += fp
                score.detections += int(detected)
                score.trials += 1
                score.per_bug[bug_name] = (
                    score.per_bug.get(bug_name, 0) + int(detected)
                )
    # The pipeline pass is shared; charge it evenly so per-contender
    # seconds stay comparable with the baselines' standalone runs.
    for detector in detectors:
        result.scores[detector].seconds = (
            backend_seconds / len(detectors) if detectors else 0.0
        )

    for baseline in baselines:
        work = [
            (programs[name], bug, period, seed, baseline)
            for name, bug in bugs.items()
            for seed in range(runs)
        ]
        start = time.perf_counter()
        graded_runs, _ledger = supervised_map(_baseline_trial, work,
                                              jobs=jobs)
        score = result.scores[baseline]
        score.seconds = time.perf_counter() - start
        cursor = 0
        for bug_name in bugs:
            for _seed in range(runs):
                tp, fp, detected = graded_runs[cursor]
                cursor += 1
                score.true_positives += tp
                score.false_positives += fp
                score.detections += int(detected)
                score.trials += 1
                score.per_bug[bug_name] = (
                    score.per_bug.get(bug_name, 0) + int(detected)
                )
    return result
