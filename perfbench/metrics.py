"""Metrics of the end-to-end benchmark: what is reported, in which unit,
and how each is computed from the passes.

``BENCHMARK.json`` at the root of the repository lists the same names
and units; the self-test checks that the two agree.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from flows import WORK_COUNTS, Outcome
from spans import Tracer

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

#: The paper's Figure 12 split of offline cost, and its slowdowns.
PAPER_SPLIT = {"decode": 0.337, "reconstruction": 0.647, "detection": 0.016}
PAPER_SLOWDOWN = {"apache": 54.5, "mysql": 35.3}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression.
    bound: Optional[float] = None


#: Measured with tracing off; times are wall-clock seconds of one pass
#: over every input of the workload, set-up excluded, each input timed
#: by the fastest of its repeats (see :func:`fastest_pass`).  setup_s is
#: the median of the set-ups.
END_TO_END = (
    Metric("e2e_s", "s", "lower", 0.25),
    Metric("trace_s", "s", "lower", 0.25),
    Metric("analyze_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("online_overhead_pct", "%", "lower", 0.05),
)

#: End-to-end metrics that are printed but left out of the result line,
#: because each is 0 on some workload and a recorded metric never is:
#: nothing confirms on ``lossy-reconcile``, nothing races on
#: ``clean-long``, and a correct run fails nothing.  The result line
#: carries ``failed_frac`` as ``failed`` over ``attempted``.
PRINTED_ONLY = (
    Metric("confirm_s", "s", "lower"),
    Metric("failed_frac", "ratio", "lower"),
    Metric("bugs_detected", "count", "higher"),
    Metric("races_confirmed", "count", "higher"),
)

#: Measured in the fastest traced pass.
PER_LAYER = (
    Metric("trace.busy_s", "s", "lower"),
    Metric("trace.kinsn_per_s", "kinsn/s", "higher"),
    Metric("trace.samples", "count", "higher"),
    Metric("container.write_s", "s", "lower"),
    Metric("container.read_s", "s", "lower"),
    Metric("container.bytes", "bytes", "lower"),
    Metric("clock.busy_s", "s", "lower"),
    Metric("decode.busy_s", "s", "lower"),
    Metric("decode.ksteps_per_s", "ksteps/s", "higher"),
    Metric("decode.gaps_crossed", "count", "higher"),
    Metric("decode.threads_skipped", "count", "lower"),
    Metric("timeline.busy_s", "s", "lower"),
    Metric("timeline.samples_unaligned", "count", "lower"),
    Metric("replay.busy_s", "s", "lower"),
    Metric("replay.rounds", "count", "lower"),
    Metric("replay.executed_steps", "count", "lower"),
    Metric("replay.ksteps_per_s", "ksteps/s", "higher"),
    Metric("replay.summary_step_frac", "ratio", "higher"),
    Metric("replay.recovered", "count", "higher"),
    Metric("replay.recovery_ratio", "ratio", "higher"),
    Metric("replay.windows_aborted", "count", "lower"),
    Metric("merge.busy_s", "s", "lower"),
    Metric("merge.events", "count", "lower"),
    Metric("merge.mean_run_len", "events/run", "higher"),
    Metric("merge.suppressed", "count", "lower"),
    Metric("detect.busy_s", "s", "lower"),
    Metric("detect.mevents_per_s", "Mevents/s", "higher"),
    Metric("detect.races_reported", "count", "higher"),
    Metric("detect.shard2_s", "s", "lower"),
    Metric("detect.shard2_speedup", "x", "higher"),
    Metric("confirm.busy_s", "s", "lower"),
    Metric("confirm.events_for_s", "s", "lower"),
    Metric("confirm.plan_s", "s", "lower"),
    Metric("confirm.replay_s", "s", "lower"),
    Metric("confirm.replays", "count", "lower"),
    Metric("confirm.fired_frac", "ratio", "higher"),
    Metric("fig12.slowdown", "s/s", "lower"),
    Metric("fig12.decode_frac", "ratio", "lower"),
    Metric("fig12.reconstruction_frac", "ratio", "lower"),
    Metric("fig12.detection_frac", "ratio", "higher"),
    Metric("bench.trace_overhead", "x", "lower"),
    Metric("bench.unattributed_s", "s", "lower"),
)

#: Layers whose self times, with the unattributed stage time, make up
#: the traced wall time.
LAYERS = ("trace", "container", "clock", "decode", "timeline", "replay",
          "merge", "detect", "confirm")

UNITS = {metric.name: metric.unit
         for metric in END_TO_END + PRINTED_ONLY + PER_LAYER}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_seconds(outcomes: Sequence[Outcome]) -> float:
    """One pass's end-to-end time, summed over its inputs."""
    return sum(o.e2e_s for o in outcomes)


def work_counts(outcomes: Sequence[Outcome]) -> Dict[str, int]:
    total: Counter = Counter()
    for outcome in outcomes:
        total.update(outcome.counts)
    return {name: total[name] for name in WORK_COUNTS}


def fastest_pass(passes: Sequence[Sequence[Outcome]]) -> Dict[str, float]:
    """Each stage time of one pass over every input, taking for each
    input and stage the fastest of its repeats; ``e2e_s`` is their sum.

    Other tenants of a shared machine can only slow a pass down, and
    they do so in bursts that outlast a whole pass, so neither the
    median nor the fastest pass is steady; the per-stage minimum is.
    """
    fastest = {
        stage: sum(min(getattr(outcome, stage) for outcome in repeats)
                   for repeats in zip(*passes))
        for stage in ("trace_s", "analyze_s", "confirm_s")
    }
    fastest["e2e_s"] = sum(fastest.values())
    return fastest


def end_to_end(passes: Sequence[Sequence[Outcome]],
               setup_seconds: Sequence[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """The untraced passes' metrics, printed-only ones included."""
    fastest = fastest_pass(passes)
    first = passes[0]
    attempted = sum(len(outcomes) for outcomes in passes)
    failed = sum(o.failed for outcomes in passes for o in outcomes)
    return {
        "e2e_s": fastest["e2e_s"],
        "trace_s": fastest["trace_s"],
        "analyze_s": fastest["analyze_s"],
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss_mb,
        "online_overhead_pct":
            100.0 * statistics.fmean(o.overhead for o in first),
        "confirm_s": fastest["confirm_s"],
        "failed_frac": _ratio(failed, attempted),
        "bugs_detected": sum(o.detected for o in first if o.labelled),
        "races_confirmed": sum(o.races_confirmed for o in first),
    }


def fig12_split(tracer: Tracer) -> Dict[str, float]:
    """Self seconds of the analyze stage along the paper's Figure 12
    layers, plus what falls outside them."""
    busy = tracer.layer_self(under="analyze")
    stage = tracer.stage_seconds().get("analyze", 0.0)
    split = {
        "decode": busy["decode"],
        "reconstruction": busy["timeline"] + busy["replay"],
        "detection": busy["merge"] + busy["detect"],
        "clock": busy["clock"],
        "container": busy["container"],
    }
    split["other"] = stage - sum(split.values())
    return split


def per_layer(tracer: Tracer, outcomes: Sequence[Outcome],
              traced_e2e: float, untraced_e2e: float,
              untraced_analyze: float,
              shard_seconds: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    busy = tracer.layer_self()
    counts = tracer.counts
    work = work_counts(outcomes)
    split = fig12_split(tracer)
    fig12_total = (split["decode"] + split["reconstruction"]
                   + split["detection"])
    replayed = counts["replay.stepped"] + counts["replay.summary_steps"]
    runs = counts["merge.runs"]
    streamed = counts["merge.run_events"] + counts["merge.sync_events"]
    sampled = sum(o.sampled for o in outcomes)
    recovered = sum(o.recovered for o in outcomes)
    reported = sum(o.confirm_reported for o in outcomes)
    return {
        "trace.busy_s": busy["trace"],
        "trace.kinsn_per_s": _ratio(sum(o.instructions for o in outcomes),
                                    busy["trace"]) / 1e3,
        "trace.samples": work["trace.samples"],
        "container.write_s": tracer.inclusive("container.write"),
        "container.read_s": tracer.inclusive("container.read"),
        "container.bytes": work["container.bytes"],
        "clock.busy_s": busy["clock"],
        "decode.busy_s": busy["decode"],
        "decode.ksteps_per_s": _ratio(counts["decode.steps"],
                                      busy["decode"]) / 1e3,
        "decode.gaps_crossed": sum(o.gaps_crossed for o in outcomes),
        "decode.threads_skipped": sum(o.threads_skipped for o in outcomes),
        "timeline.busy_s": busy["timeline"],
        "timeline.samples_unaligned":
            sum(o.samples_unaligned for o in outcomes),
        "replay.busy_s": busy["replay"],
        "replay.rounds": work["replay.rounds"],
        "replay.executed_steps": work["replay.executed_steps"],
        "replay.ksteps_per_s": _ratio(replayed, busy["replay"]) / 1e3,
        "replay.summary_step_frac": _ratio(counts["replay.summary_steps"],
                                           replayed),
        "replay.recovered": recovered,
        "replay.recovery_ratio": _ratio(recovered + sampled, sampled),
        "replay.windows_aborted": sum(o.windows_aborted for o in outcomes),
        "merge.busy_s": busy["merge"],
        "merge.events": work["merge.events"],
        "merge.mean_run_len": _ratio(counts["merge.run_events"], runs),
        "merge.suppressed": sum(o.suppressed for o in outcomes),
        "detect.busy_s": busy["detect"],
        "detect.mevents_per_s": _ratio(streamed, busy["detect"]) / 1e6,
        "detect.races_reported": sum(o.races_reported for o in outcomes),
        "detect.shard2_s": shard_seconds["shard2"],
        "detect.shard2_speedup": _ratio(shard_seconds["serial"],
                                        shard_seconds["shard2"]),
        "confirm.busy_s": busy["confirm"],
        "confirm.events_for_s": tracer.inclusive("confirm.events_for"),
        "confirm.plan_s": tracer.inclusive("confirm.plan"),
        "confirm.replay_s": tracer.inclusive("confirm.replay"),
        "confirm.replays": work["confirm.replays"],
        "confirm.fired_frac": _ratio(
            sum(o.races_confirmed for o in outcomes), reported),
        "fig12.slowdown": _ratio(untraced_analyze,
                                 sum(o.exec_seconds for o in outcomes)),
        "fig12.decode_frac": _ratio(split["decode"], fig12_total),
        "fig12.reconstruction_frac": _ratio(split["reconstruction"],
                                            fig12_total),
        "fig12.detection_frac": _ratio(split["detection"], fig12_total),
        "bench.trace_overhead": _ratio(traced_e2e, untraced_e2e),
        "bench.unattributed_s": tracer.unattributed(),
    }


def self_time_gap(tracer: Tracer) -> float:
    """Traced wall time minus (layer self times + unattributed time).
    Zero up to rounding when the span bookkeeping is sound."""
    wall = sum(tracer.stage_seconds().values())
    busy = tracer.layer_self()
    return wall - sum(busy[layer] for layer in LAYERS) - tracer.unattributed()


def drifted_counts(reference: Dict[str, int],
                   passes: Iterable[Dict[str, int]]) -> List[str]:
    """Names of the work counts that differ from *reference* in any pass."""
    drifted = []
    for counts in passes:
        for name in WORK_COUNTS:
            if counts[name] != reference[name] and name not in drifted:
                drifted.append(name)
    return drifted


def invalid_names(values: Dict[str, float]) -> List[str]:
    """Metric names that break the naming rule or carry no unit."""
    return [name for name in values
            if not NAME_PATTERN.fullmatch(name) or not UNITS.get(name)]


def fig12_table(workload: str, tracer: Tracer,
                outcomes: Sequence[Outcome], slowdown: float) -> List[str]:
    """The Figure 12 split of the traced analyze stage beside the
    paper's and beside ``OfflineTimings.breakdown()``."""
    split = fig12_split(tracer)
    total = split["decode"] + split["reconstruction"] + split["detection"]
    timings = {"decode": 0.0, "reconstruction": 0.0, "detection": 0.0}
    for outcome in outcomes:
        timings["decode"] += outcome.timings.decode_seconds
        timings["reconstruction"] += outcome.timings.reconstruction_seconds
        timings["detection"] += outcome.timings.detection_seconds
    filed = sum(timings.values())
    lines = [
        f"Figure 12 split of the analyze stage ({workload}):",
        f"  {'layer':<16}{'measured':>10}{'OfflineTimings':>16}"
        f"{'paper':>8}",
    ]
    for key in ("decode", "reconstruction", "detection"):
        lines.append(
            f"  {key:<16}{100 * _ratio(split[key], total):>9.1f}%"
            f"{100 * _ratio(timings[key], filed):>15.1f}%"
            f"{100 * PAPER_SPLIT[key]:>7.1f}%"
        )
    lines.append(
        f"  outside the three layers: clock {split['clock']:.4f} s, "
        f"container read {split['container']:.4f} s, "
        f"pipeline glue {split['other']:.4f} s"
    )
    paper = ", ".join(f"{app} {value}" for app, value in
                      PAPER_SLOWDOWN.items())
    lines.append(f"  fig12.slowdown {slowdown:.1f} s/s (paper: {paper})")
    return lines
