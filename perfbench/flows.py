"""Workloads of the end-to-end benchmark and the flow each input takes.

Every input runs ProRace the way a user does: ``trace_run``, the trace
container (``trace_to_bytes`` then ``read_trace_bytes``),
``OfflinePipeline.analyze`` and, where the workload confirms, the
``repro detect --confirm`` pass (``OfflinePipeline.events_for`` then
``confirm_races``).  Inputs run serially in one process (``jobs=1``).

The flow looks up ``trace_run``, ``trace_to_bytes``, ``read_trace_bytes``
and ``confirm_races`` on their packages at call time, so the traced pass
can wrap them there (see ``spans.py``).
"""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import repro.confirm
import repro.tracing
from repro.analysis import SIMULATED_CLOCK_HZ, OfflinePipeline, OfflineTimings
from repro.analysis.costs import estimate_overhead
from repro.analysis.shootout import grade_pairs
from repro.confirm import ConfirmConfig
from repro.faults import FaultPlan, builtin_plans, clock_plans
from repro.isa.program import Program
from repro.machine import Machine
from repro.workloads import APP_WORKLOADS, RACE_BUGS, WorkloadScale

#: Scale of the Table 2 programs: the scale of the recorded Table 2 run,
#: which detects every bug in 10/10 traces at period 1,000.
BUG_SCALE = WorkloadScale(iterations=40)

#: Scale of the Figure 12 application models: a few thousand to a few
#: hundred thousand simulated instructions per trace.
APP_SCALE = WorkloadScale(iterations=150, data_words=128)

#: The six Figure 12 application models.
FIG12_APPS = ("apache", "mysql", "cherokee", "pbzip2", "pfscan", "aget")

#: Fault intensity of the lossy workload's plans.
FAULT_INTENSITY = 0.2

#: Seed of the PEBS engine's randomized first period, the same for every
#: trace.  The workload seed drives the machine's schedule instead.  At
#: these periods a trace carries only a few samples per core, so a seed
#: that redrew the sampling phase would redraw how many samples there
#: are, and with them most of the replay work: the cost of a
#: ``clean-long`` pass would swing by a quarter between seeds.
SAMPLING_SEED = 0

#: Distance between the trace seeds of one program's traces, so that
#: nearby workload seeds never share a trace.
SEED_STRIDE = 1_000_003

#: The work counts that must repeat exactly between passes over the
#: same inputs.
WORK_COUNTS = (
    "replay.rounds", "replay.executed_steps", "merge.events",
    "confirm.replays", "container.bytes", "trace.samples",
)


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the flow they take."""

    name: str
    why: str
    #: PEBS sampling period of every trace.
    period: int
    #: Traces per program in one pass.
    traces_per_program: int
    #: Round-trip each trace through the container bytes.
    container: bool
    #: Confirm every reported race, as ``repro detect --confirm`` does.
    confirm: bool
    #: Degrade each trace by a fault plan and analyze with clock
    #: reconciliation, as the ``repro chaos`` flow does.
    lossy: bool
    #: Every trace must report its labelled race (the known answer).
    detects_every_bug: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "table2-confirm",
            "all twelve Table 2 bugs at period 1,000, every reported race "
            "confirmed: the only workload where confirmation replays run",
            period=1_000, traces_per_program=1, container=True,
            confirm=True, lossy=False, detects_every_bug=True,
        ),
        Workload(
            "clean-long",
            "the six race-free Figure 12 app models at period 10,000: "
            "decode, window replay and the merged stream carry the time",
            period=10_000, traces_per_program=1, container=True,
            confirm=True, lossy=False, detects_every_bug=False,
        ),
        Workload(
            "lossy-reconcile",
            "the Table 2 traces degraded by data-loss and clock fault "
            "plans, analyzed with clock reconciliation and not confirmed",
            period=1_000, traces_per_program=4, container=False,
            confirm=False, lossy=True, detects_every_bug=False,
        ),
    )
}


@dataclass
class Input:
    """One trace of a workload: a program and the seeds that make it."""

    label: str
    program: Program
    #: Instruction addresses of the known racy set (empty: race-free).
    racy_ips: FrozenSet[int]
    #: The program carries a labelled race.
    labelled: bool
    trace_seed: int
    plan: Optional[FaultPlan] = None


def setup(workload: Workload, seed: int) -> List[Input]:
    """Build the workload's programs and fault plans for *seed*.

    Trace seeds derive from the workload seed: the first trace of each
    program takes the workload seed itself, so the lossy workload
    degrades the very traces ``table2-confirm`` analyzes (and more),
    and its plan seeds are the trace seeds.
    """
    inputs: List[Input] = []
    if workload.name == "clean-long":
        programs = [(name, APP_WORKLOADS[name].build(APP_SCALE), None)
                    for name in FIG12_APPS]
    else:
        programs = []
        for name, bug in RACE_BUGS.items():
            program = bug.build(BUG_SCALE)
            programs.append((name, program, bug.racy_ips(program)))
    for k in range(workload.traces_per_program):
        trace_seed = seed + k * SEED_STRIDE
        for index, (name, program, racy) in enumerate(programs):
            plan = None
            if workload.lossy:
                # Alternate the data-loss and the clock plan, so every
                # program meets both across its traces.
                plan = (
                    builtin_plans(FAULT_INTENSITY, seed=trace_seed)["combined"]
                    if (index + k) % 2 == 0 else
                    clock_plans(FAULT_INTENSITY,
                                seed=trace_seed)["clock-combined"]
                )
            inputs.append(Input(
                label=f"{name}#{trace_seed}", program=program,
                racy_ips=racy or frozenset(), labelled=racy is not None,
                trace_seed=trace_seed, plan=plan,
            ))
    return inputs


@dataclass
class Outcome:
    """What one input's flow measured and produced."""

    label: str
    trace_s: float = 0.0
    analyze_s: float = 0.0
    confirm_s: float = 0.0
    #: The exception the flow raised, if any.
    error: Optional[str] = None
    #: Reported pairs outside the known racy set.
    out_of_set: int = 0
    detected: bool = False
    labelled: bool = False
    #: ``(reported races, confirmation verdicts)`` — must repeat exactly.
    verdicts: Tuple = ()
    counts: Dict[str, int] = field(default_factory=dict)
    races_reported: int = 0
    races_confirmed: int = 0
    confirm_reported: int = 0
    overhead: float = 0.0
    instructions: int = 0
    exec_seconds: float = 0.0
    gaps_crossed: int = 0
    threads_skipped: int = 0
    samples_unaligned: int = 0
    recovered: int = 0
    sampled: int = 0
    windows_aborted: int = 0
    suppressed: int = 0
    timings: OfflineTimings = field(default_factory=OfflineTimings)
    #: The analyzed bundle, kept only when the caller asks for it.
    bundle: object = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.out_of_set > 0

    @property
    def e2e_s(self) -> float:
        return self.trace_s + self.analyze_s + self.confirm_s


def pipeline_for(workload: Workload, program: Program,
                 detect_shards: int = 1) -> OfflinePipeline:
    return OfflinePipeline(program, reconcile_clock=workload.lossy,
                           detect_shards=detect_shards)


def no_stage(name: str):
    """The stage opener of the untraced pass: opens nothing."""
    return nullcontext()


def run_input(workload: Workload, item: Input,
              stage: Callable = no_stage,
              keep_bundle: bool = False) -> Outcome:
    """Run one input through the user's flow.

    Each stage is timed on its own; fault injection and grading happen
    between stages and stay out of every time.  *stage* opens a named
    benchmark stage (a span in the traced pass).
    """
    outcome = Outcome(label=item.label, labelled=item.labelled)
    clock = time.perf_counter
    program = item.program
    try:
        begin = clock()
        with stage("trace"):
            machine = Machine(program, seed=item.trace_seed)
            traced = repro.tracing.trace_run(program, period=workload.period,
                                             seed=SAMPLING_SEED,
                                             machine=machine)
            blob = (repro.tracing.trace_to_bytes(traced)
                    if workload.container else None)
        outcome.trace_s = clock() - begin

        bundle = traced
        if item.plan is not None:
            bundle, _defects = item.plan.apply(traced)

        begin = clock()
        with stage("analyze"):
            if blob is not None:
                bundle = repro.tracing.read_trace_bytes(blob, program=program)
            pipeline = pipeline_for(workload, program)
            result = pipeline.analyze(bundle)
        outcome.analyze_s = clock() - begin

        report = None
        confirm_replay = None
        if workload.confirm:
            begin = clock()
            with stage("confirm"):
                events, confirm_replay = pipeline.events_for(bundle)
                report = repro.confirm.confirm_races(
                    program, result.races, events,
                    config=ConfirmConfig(seed=item.trace_seed,
                                         machine_seed=item.trace_seed),
                )
            outcome.confirm_s = clock() - begin
    except Exception as error:  # noqa: BLE001 - a failed input is counted
        traceback.print_exc(file=sys.stderr)
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome

    grade(outcome, result.races, item.racy_ips)
    outcome.verdicts = (
        tuple((race.address, race.pair) for race in result.races),
        tuple((v.race_key, v.verdict) for v in report.verdicts)
        if report is not None else (),
    )
    degradation = result.degradation
    stats = result.replay.stats
    outcome.counts = {
        "replay.rounds": result.regeneration_rounds
        + (1 if confirm_replay is not None else 0),
        "replay.executed_steps": stats.executed_steps + (
            confirm_replay.stats.executed_steps
            if confirm_replay is not None else 0),
        "merge.events": result.events_processed,
        "confirm.replays": report.replays_total if report is not None else 0,
        "container.bytes": len(blob) if blob is not None else 0,
        "trace.samples": len(traced.samples),
    }
    outcome.races_reported = len(result.races)
    if report is not None:
        outcome.races_confirmed = report.confirmed
        outcome.confirm_reported = report.races_reported
    outcome.overhead = estimate_overhead(traced).overhead
    outcome.instructions = traced.run.instructions
    outcome.exec_seconds = traced.run.tsc / SIMULATED_CLOCK_HZ
    outcome.gaps_crossed = degradation.gaps_crossed
    outcome.threads_skipped = len(degradation.threads_skipped)
    outcome.samples_unaligned = degradation.samples_unaligned
    outcome.recovered = stats.recovered
    outcome.sampled = stats.sampled
    outcome.windows_aborted = degradation.windows_aborted
    outcome.suppressed = degradation.suppressed_accesses
    outcome.timings = result.timings
    if keep_bundle:
        outcome.bundle = bundle
    return outcome


def grade(outcome: Outcome, races, racy_ips: FrozenSet[int]) -> None:
    """The verdict gate: grade a trace's reported pairs against its
    known racy set.  Any pair outside it is a fabricated race and fails
    the trace; a pair inside it detects the labelled race."""
    _tp, outcome.out_of_set, outcome.detected = grade_pairs(
        [race.pair for race in races], racy_ips)
