"""One benchmark run: set-up, untraced and traced passes, the sharded
detection measurement, the checks and the report."""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import List, NamedTuple, Optional

import flows
import metrics
import selftest
from spans import DETECTION_STAGE, Tracer, installed

#: Set-ups timed before each pass (the pass uses the last one);
#: ``setup_s`` is the median of all of them.
SETUP_REPEATS = 3

#: Largest |wall - (layer self times + unattributed)| accepted, as a
#: share of the traced wall time: the identity holds up to rounding.
SELF_TIME_TOLERANCE = 1e-9


class Pass(NamedTuple):
    inputs: List[flows.Input]
    outcomes: List[flows.Outcome]
    #: The pass's spans (traced passes only).
    tracer: Optional[Tracer]
    #: The process's peak resident memory once the pass ended, in MiB.
    peak_rss_mb: float


@contextmanager
def collector_paused():
    """Run a pass with the cyclic garbage collector off, as ``timeit``
    does.  The pipeline leaves no reference cycles behind (a collection
    after a pass frees nothing), so the collector only adds traversals
    whose cost swings with memory contention; it runs between passes."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_passes(workload: flows.Workload, seed: int, seconds: float,
               traced: bool, setup_seconds: List[float]) -> List[Pass]:
    """Passes over freshly set-up inputs until *seconds* have elapsed
    (at least one); every set-up's time lands in *setup_seconds*."""
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            inputs = flows.setup(workload, seed)
            setup_seconds.append(time.perf_counter() - begin)
        tracer = Tracer() if traced else None
        spans_on = installed(tracer) if traced else nullcontext()
        stage = tracer.stage if traced else flows.no_stage
        with collector_paused(), spans_on:
            outcomes = [flows.run_input(workload, item, stage,
                                        keep_bundle=traced)
                        for item in inputs]
        if passes:
            # Only the last pass keeps its bundles, for the shard
            # measurement.
            for outcome in passes[-1].outcomes:
                outcome.bundle = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(Pass(inputs, outcomes, tracer, peak_rss_mb))
    return passes


def measure_shards(workload: flows.Workload, last: Pass):
    """Detection-stage seconds of the serial and the 2-shard pipeline
    over the bundles of *last*, in alternating order, and the labels of
    the traces whose verdicts differ between the two."""
    tracer = Tracer()
    mismatched = []
    with installed(tracer, DETECTION_STAGE):
        for index, (item, outcome) in enumerate(zip(last.inputs,
                                                    last.outcomes)):
            if outcome.bundle is None:
                continue
            order = [("serial", 1), ("shard2", 2)]
            if index % 2:
                order.reverse()
            verdicts = {}
            for name, shards in order:
                pipeline = flows.pipeline_for(workload, item.program,
                                              detect_shards=shards)
                with tracer.stage(name):
                    result = pipeline.analyze(outcome.bundle)
                verdicts[name] = [(r.address, r.pair) for r in result.races]
            if verdicts["serial"] != verdicts["shard2"]:
                mismatched.append(item.label)
            outcome.bundle = None
    seconds = {name: tracer.layer_self(under=name)["detect"]
               for name in ("serial", "shard2")}
    return seconds, mismatched


def check_passes(workload: flows.Workload, untraced: List[Pass],
                 traced: List[Pass], e2e) -> List[str]:
    """The verdict gate, determinism and the known answers."""
    problems = []
    every_pass = [p.outcomes for p in untraced + traced]
    failures = {}
    for outcomes in every_pass:
        for outcome in outcomes:
            if outcome.failed:
                failures[outcome.label] = outcome.error or (
                    f"{outcome.out_of_set} reported pair(s) outside the "
                    "known racy set")
    problems += [f"{label}: {why}" for label, why in failures.items()]

    drifted = metrics.drifted_counts(
        metrics.work_counts(every_pass[0]),
        (metrics.work_counts(outcomes) for outcomes in every_pass[1:]))
    if drifted:
        problems.append("work counts drifted between passes: "
                        + ", ".join(drifted))
    reference = [o.verdicts for o in every_pass[0]]
    if any([o.verdicts for o in p.outcomes] != reference
           for p in untraced[1:]):
        problems.append("verdicts differ between untraced passes")
    if any([o.verdicts for o in p.outcomes] != reference for p in traced):
        problems.append("the traced pass's verdicts differ from the "
                        "untraced pass's")
    if workload.detects_every_bug:
        missed = [o.label for o in every_pass[0]
                  if o.labelled and not o.detected]
        if missed:
            problems.append("labelled race not reported: "
                            + ", ".join(missed))
        if not e2e["races_confirmed"]:
            problems.append("no reported race was confirmed")
    return problems


def check_spans(traced: List[Pass]) -> List[str]:
    problems = []
    for p in traced:
        wall = sum(p.tracer.stage_seconds().values())
        if p.tracer.depth:
            problems.append("a traced pass left spans open")
        if abs(metrics.self_time_gap(p.tracer)) > \
                SELF_TIME_TOLERANCE * max(wall, 1.0):
            problems.append("layer self times plus unattributed time do "
                            "not add up to the traced wall time")
    return problems


def _pass_seconds(p: Pass) -> float:
    return metrics.pass_seconds(p.outcomes)


def _shown(value) -> str:
    return f"{value:>18.6f}" if isinstance(value, float) else f"{value:>18d}"


def run(args, benchmark_json: Path) -> int:
    """Run the workload named in *args*; print the report and, last, the
    result line.  Returns the exit code."""
    broken = selftest.problems(benchmark_json)
    if broken:
        for problem in broken:
            print(f"perfbench: self-test: {problem}", file=sys.stderr)
        return 2
    workload = flows.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(flows.WORKLOADS)})", file=sys.stderr)
        return 2

    setup_seconds: List[float] = []
    untraced = run_passes(workload, args.seed,
                          args.seconds / 2 if args.trace else args.seconds,
                          traced=False, setup_seconds=setup_seconds)
    traced = (run_passes(workload, args.seed, args.seconds / 2, traced=True,
                         setup_seconds=[])
              if args.trace else [])

    # Memory of one pass, as one run of the user's flow has it: every
    # later pass builds fresh programs, and the lowering cache keeps each
    # program it lowered alive, so the high-water mark grows with the
    # number of passes.
    e2e = metrics.end_to_end([p.outcomes for p in untraced], setup_seconds,
                             untraced[0].peak_rss_mb)
    problems = check_passes(workload, untraced, traced, e2e)
    layer = {}
    report_lines: List[str] = []
    if traced:
        shard_seconds, mismatched = measure_shards(workload, traced[-1])
        if mismatched:
            problems.append("2-shard detection verdicts differ from "
                            "serial: " + ", ".join(mismatched))
        problems += check_spans(traced)
        fastest = min(traced, key=_pass_seconds)
        layer = metrics.per_layer(
            fastest.tracer, fastest.outcomes,
            traced_e2e=_pass_seconds(fastest),
            untraced_e2e=min(map(_pass_seconds, untraced)),
            untraced_analyze=e2e["analyze_s"],
            shard_seconds=shard_seconds,
        )
        report_lines += metrics.fig12_table(
            workload.name, fastest.tracer, fastest.outcomes,
            layer["fig12.slowdown"])
        report_lines += ["", "Span tree of the fastest traced pass "
                         "(calls, inclusive s, self s):"]
        report_lines += fastest.tracer.render()
    invalid = metrics.invalid_names({**e2e, **layer})
    if invalid:
        problems.append("metric names without a unit or breaking the "
                        "naming rule: " + ", ".join(invalid))

    every_pass = [p.outcomes for p in untraced + traced]
    passes = f"{len(untraced)} untraced"
    if traced:
        passes += f" + {len(traced)} traced"
    print(f"perfbench {workload.name}: seed {args.seed}, "
          f"{len(every_pass[0])} traces per pass, {passes} passes")
    print(f"  {workload.why}")
    print("End-to-end metrics (untraced; each input's fastest pass):")
    for metric in metrics.END_TO_END + metrics.PRINTED_ONLY:
        print(f"  {metric.name:<28}{_shown(e2e[metric.name])} {metric.unit}")
    if layer:
        print("Per-layer metrics (fastest traced pass):")
        for metric in metrics.PER_LAYER:
            print(f"  {metric.name:<28}{_shown(layer[metric.name])} "
                  f"{metric.unit}")
        for line in report_lines:
            print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(outcomes) for outcomes in every_pass),
        "failed": sum(o.failed for outcomes in every_pass for o in outcomes),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in declared},
    }))
    return 0 if not problems else 1
