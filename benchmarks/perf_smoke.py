"""CI perf smoke: tracing, replay, planning, detection and fan-out gates.

A deliberately small, fast guard (seconds, not minutes) run on every CI
build; the full measurements live in ``perfbench/``,
``benchmarks/test_replay_speed.py`` and ``docs/performance.md``.  Fails
loudly if tracing the ``table2-confirm`` programs costs more than
:data:`MAX_TRACE_OVERHEAD` over running them bare, if window replay on
any perfbench workload drops below its floor
in :data:`MIN_REPLAY_KSTEPS_PER_S` (``replay.ksteps_per_s``), if the
witness planner plans the ``table2-confirm`` streams below
:data:`MIN_PLAN_KSTEPS_PER_S`, if FastTrack detects the merged streams
of a perfbench workload below its floor in
:data:`MIN_DETECT_MEVENTS_PER_S` (or reports other races than the
oracle ``tests.helpers.ReferenceFastTrack``), if a separate clock
merge-key column slows the columnar feed by more than
:data:`MAX_CLOCK_KEY_OVERHEAD`, if a pair-targeting replay that never
fires, the one confirmation replay that runs a program to its end,
costs more than :data:`MAX_CONTROLLER_OVERHEAD` over a controller-free
run, or if ``supervised_map`` fans work out more than
:data:`MAX_FANOUT_OVERHEAD` slower than ideal parallelism.

Run directly: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from detect_stream import locality_stream
from repro.detector.batch import BATCH_SYNC
from repro.detector.fasttrack import FastTrack
from repro.detector.witness import WitnessPlanner
from repro.machine import Machine, PairTargetController
from repro.supervise import supervised_map
from repro.workloads import PARSEC_WORKLOADS, WorkloadScale

ROOT = Path(__file__).resolve().parent.parent
#: Floors on perfbench's ``replay.ksteps_per_s`` per workload, each read
#: from ``perfbench/run.py --workload W --seed 0 --seconds 1 --trace 1``.
#: ``clean-long``: 1.15x the rate of the instruction interpreter this
#: replay path replaced (median of 5 runs: 209, 259, 263, 365 and 400
#: ksteps/s on a shared 2-vCPU VM).
#: ``table2-confirm`` and ``lossy-reconcile``: the median rate replay
#: had there while the span-summary cache and window memo still sat on
#: it (6 runs each on the same VM: 192-256, median 217, and 197-223,
#: median 209; without them replay read 322-368 and 317-404), so the
#: gate fails if replay falls back to that speed.
MIN_REPLAY_KSTEPS_PER_S = {
    "table2-confirm": 217,
    "clean-long": 302,
    "lossy-reconcile": 209,
}
#: Floor on witness steps planned per second over the
#: ``table2-confirm`` seed-0 streams (:func:`_planning_rate`: a planner
#: per stream and a full schedule per reported race, 6,705 steps, as
#: ``confirm_races`` plans them).  1.15x the median rate of the planner
#: that rescanned the stream for every race and hashed six tuples per
#: DFS node (12 runs on a shared 2-vCPU VM: 60-85 ksteps/s, median 70;
#: the planner that indexes the stream once read 302-558).  Those rates
#: were read while the planner planned each pair's last occurrence in
#: the stream, 32,828 steps; planned at the reported instance, the
#: steps fall 4.9x and the planner's per-stream index stays, so the
#: reading went from 299-562 to 198-465 ksteps/s (9 and 10 readings
#: on the same VM).
MIN_PLAN_KSTEPS_PER_S = 81
#: Planning passes per reading; the reading is the fastest of them.
PLAN_PASSES = 3
#: Ceiling on what ``trace_run`` costs over a bare ``Machine.run`` of the
#: same program and schedule, as a fraction of the bare run, over
#: perfbench's ``table2-confirm`` programs at seed 0
#: (:func:`_trace_seconds`).  1.15x the highest of eight readings of the
#: packetizer that appends each branch's packet to its stream's columns
#: (0.121-0.162 on a shared 2-vCPU VM); the packetizer that built a
#: branch event and a packet object for every branch read 0.395-0.534
#: there, alternating with them.
MAX_TRACE_OVERHEAD = 0.19
#: Pairs of passes per tracing reading; a pair takes about 0.3 s.
TRACE_PAIRS = 10
#: The clock-key and controller gates each compare two sides whose
#: passes take a few milliseconds.  Timed as two blocks, one after the
#: other, a burst of load on a shared runner that lands on one block
#: reads as tens of percent of overhead.  So each gate times this many
#: back-to-back pairs of passes, one of each side, and reads the median
#: over the pairs of one side's time over the other's (see
#: :func:`_paired_passes`).  A clock-key pass takes about 8 ms on a
#: shared 2-vCPU VM, a free machine run of the controller gate 6-10 ms.
CLOCK_KEY_PAIRS = 100
CONTROLLER_PAIRS = 30
#: Floors on FastTrack detection throughput, in merged-stream events
#: (accesses plus sync operations) per second, over the seed-0 inputs
#: of a perfbench workload (:func:`detect_rate`).  ``table2-confirm``
#: takes the same-epoch fast path on 96% of its accesses, ``clean-long``
#: on none, so the two bound both sides of the access routine.  Nine
#: readings per side, alternating, on a shared 2-vCPU VM: the routine
#: that builds an ``Access`` only for a report read 0.51-0.90 Mevents/s
#: on ``clean-long`` (median 0.83), and the mirror-table loop it
#: replaced, which built one per fast-path miss, 0.23-0.39 (median
#: 0.37; 0.40 at most in five more), so the floor sits above every
#: reading of that loop.  On ``table2-confirm`` the two overlapped
#: (0.75-1.42 and 0.86-1.54); its floor fails a feed that builds an
#: ``Access`` per event, which read 0.21 there.
MIN_DETECT_MEVENTS_PER_S = {
    "table2-confirm": 0.55,
    "clean-long": 0.42,
}
#: Detection passes per reading; the reading is the fastest of them.
DETECT_PASSES = 10
BATCH_STREAM_EVENTS = 30_000
#: Clock reconciliation keys the merged stream on a separate
#: ``key_tscs`` column (uncertainty-clamped merge keys); with the flag
#: off the column aliases ``tscs`` and the layout is bit-identical to
#: pre-clock builds.  The corrected-key layout must stay within 5% of
#: the aliased one on the columnar feed path — same array type, same
#: bisects, so anything above this is a real keying regression.
MAX_CLOCK_KEY_OVERHEAD = 0.05
#: Ceiling on what a controller costs per instruction boundary: a
#: ``PairTargetController`` whose pair never occurs, run over the whole
#: gate program (:func:`_controller_seconds`), as a fraction of a
#: controller-free run.  Every other replay ends at its verdict, so
#: this is the one replay shape whose controller cost grows with the
#: program.  On a shared 2-vCPU VM, nine readings per side, alternating:
#: +402 to +429% with the run loop that free-ran every replay to the
#: program's end, +409 to +423% with the one that ends a replay at its
#: verdict, and +412 to +435% in six whole runs of this script; the
#: ceiling is about 1.15x the highest reading.
MAX_CONTROLLER_OVERHEAD = 5.0
#: Ceiling on what the fan-out costs over ideal parallelism: a
#: zero-retry ``supervised_map`` of :data:`FANOUT_ITEMS` sleeps of
#: :data:`FANOUT_SLEEP_S` at ``jobs=2`` (the fastest of
#: :data:`FANOUT_PASSES` calls), as a fraction of the ideal 0.32 s.
#: Readings on a shared 2-vCPU VM: workers reused across items +3.6 to
#: +5.2% (14 readings), the process pool they replaced +5.1 to +8.9%
#: (14), a worker forked per item +32 to +55% (6).
MAX_FANOUT_OVERHEAD = 0.15
FANOUT_ITEMS = 32
FANOUT_SLEEP_S = 0.02
FANOUT_PASSES = 3


def _nap(seconds):
    time.sleep(seconds)


def _fanout_overhead():
    """The fastest of :data:`FANOUT_PASSES` ``supervised_map`` calls
    over :data:`FANOUT_ITEMS` sleeps at ``jobs=2``, and its overhead
    over the ideal half of their total."""
    ideal = FANOUT_ITEMS * FANOUT_SLEEP_S / 2
    best = None
    for _ in range(FANOUT_PASSES):
        t0 = time.perf_counter()
        supervised_map(_nap, [FANOUT_SLEEP_S] * FANOUT_ITEMS, jobs=2)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, best / ideal - 1.0


def _perfbench_replay_rate(workload):
    """``replay.ksteps_per_s`` from a traced perfbench run of *workload*
    (seed 0, one second); the run must pass its own verdict,
    known-answer and determinism checks."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed (exit {completed.returncode}):"
                         f"\n{completed.stdout}{completed.stderr}")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"]["replay.ksteps_per_s"]["value"]


def _perfbench_inputs(name):
    """``(pipeline, bundle)`` for each of perfbench workload *name*'s
    inputs at seed 0, traced, degraded and sent through the trace
    container as its flow does."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import flows
    from repro.tracing import read_trace_bytes, trace_run, trace_to_bytes

    workload = flows.WORKLOADS[name]
    inputs = []
    for item in flows.setup(workload, 0):
        program = item.program
        bundle = trace_run(program, period=workload.period,
                           seed=flows.SAMPLING_SEED,
                           machine=Machine(program, seed=item.trace_seed))
        if item.plan is not None:
            bundle, _defects = item.plan.apply(bundle)
        if workload.container:
            bundle = read_trace_bytes(trace_to_bytes(bundle),
                                      program=program)
        inputs.append((flows.pipeline_for(workload, program), bundle))
    return inputs


def _table2_streams():
    """The merged event streams and reported races of perfbench's
    ``table2-confirm`` inputs at seed 0, as its flow builds them:
    analyzed, then ``events_for``."""
    streams = []
    for pipeline, bundle in _perfbench_inputs("table2-confirm"):
        races = pipeline.analyze(bundle).races
        events, _replay = pipeline.events_for(bundle)
        streams.append(([event for _, event in events], races))
    return streams


def detect_streams(name):
    """The merged batch streams of perfbench workload *name*'s seed-0
    inputs: ``list(context.merged_batches())`` of a context built by
    ``context_for`` and ``replay()``, one list per input."""
    streams = []
    for pipeline, bundle in _perfbench_inputs(name):
        context = pipeline.context_for(bundle)
        context.replay()
        streams.append(list(context.merged_batches()))
    return streams


def _detect_pass(streams):
    """One FastTrack per stream, fed as the detection pass feeds it;
    returns the seconds and the detectors."""
    detectors = []
    t0 = time.perf_counter()
    for items in streams:
        detector = FastTrack()
        d_sync = detector.sync
        d_feed = detector.feed_batch
        for item in items:
            if item[0] == BATCH_SYNC:
                d_sync(item[1])
            else:
                _, batch, start, stop, base = item
                d_feed(batch, start, stop, base)
        detectors.append(detector)
    return time.perf_counter() - t0, detectors


def _reports(detector):
    return (detector.races, [report.index for report in detector.races],
            detector.accesses_processed, detector.sync_processed)


def _reference_reports(items):
    """``ReferenceFastTrack``'s reports over one stream, each carrying
    its stream position."""
    from tests.helpers import ReferenceFastTrack

    reference = ReferenceFastTrack()
    for item in items:
        if item[0] == BATCH_SYNC:
            reference.sync(item[1])
        else:
            _, batch, start, stop, base = item
            for i in range(start, stop):
                reference.access(batch.access_at(i), base + i - start)
    return _reports(reference)


def detect_rate(streams, passes=DETECT_PASSES):
    """FastTrack's detection rate over *streams* (:func:`detect_streams`)
    in Mevents/s: the fastest of *passes* passes, each checked against
    the oracle's reports; returns the rate and the events of a pass."""
    sys.path.insert(0, str(ROOT))
    events = sum(1 if item[0] == BATCH_SYNC else item[3] - item[2]
                 for items in streams for item in items)
    expected = [_reference_reports(items) for items in streams]
    best = None
    for _ in range(passes):
        elapsed, detectors = _detect_pass(streams)
        got = [_reports(detector) for detector in detectors]
        assert got == expected, "FastTrack diverged from the oracle"
        if best is None or elapsed < best:
            best = elapsed
    return events / best / 1e6, events


def _trace_seconds():
    """:func:`_paired_passes` of bare ``Machine.run`` passes and of
    ``trace_run`` passes over perfbench's ``table2-confirm`` programs at
    seed 0, each program on the schedule of its perfbench trace."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import flows
    from repro.tracing import trace_run

    workload = flows.WORKLOADS["table2-confirm"]
    inputs = flows.setup(workload, 0)

    def bare():
        t0 = time.perf_counter()
        for item in inputs:
            Machine(item.program, seed=item.trace_seed).run()
        return time.perf_counter() - t0

    def traced():
        t0 = time.perf_counter()
        for item in inputs:
            trace_run(item.program, period=workload.period,
                      seed=flows.SAMPLING_SEED,
                      machine=Machine(item.program, seed=item.trace_seed))
        return time.perf_counter() - t0

    return _paired_passes(bare, traced, TRACE_PAIRS)


def _planning_rate(streams):
    """Witness steps planned per second over *streams*, in ksteps/s: a
    full-schedule planner per stream, built and asked for every
    reported race, timed together; the best of :data:`PLAN_PASSES`
    passes, and the steps one pass plans."""
    best = None
    for _ in range(PLAN_PASSES):
        steps = 0
        t0 = time.perf_counter()
        for events, races in streams:
            planner = WitnessPlanner(events, tail=None)
            for report in races:
                schedule = planner.schedule_for(report)
                if schedule is not None:
                    steps += schedule.total_steps
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return steps / best / 1e3, steps


def _paired_passes(first, second, pairs):
    """Time *pairs* back-to-back pairs of passes of two sides, each a
    callable that runs one pass and returns its seconds, with the side
    that goes first alternating.  Returns the median pass seconds of
    each side and the median over the pairs of second/first - 1: a
    burst of load slows both passes of a pair alike, and a burst that
    lands on one pass moves a few pairs, not the median."""
    firsts, seconds, ratios = [], [], []
    for index in range(pairs):
        if index % 2:
            spent_second = second()
            spent_first = first()
        else:
            spent_first = first()
            spent_second = second()
        firsts.append(spent_first)
        seconds.append(spent_second)
        ratios.append(spent_second / spent_first)
    return (statistics.median(firsts), statistics.median(seconds),
            statistics.median(ratios) - 1.0)


def _clock_key_chunks(chunks):
    """The locality chunks re-laid-out the way an engaged clock model
    builds them: ``key_tscs`` a *separate* identity-populated column
    instead of aliasing ``tscs``.  Every other column is shared, so a
    timing delta isolates the cost of the second timestamp array."""
    from array import array

    from repro.detector.batch import EventBatch

    keyed = []
    for batch, base in chunks:
        clone = EventBatch(batch.tid)
        clone.tscs = batch.tscs
        clone.key_tscs = array("d", batch.tscs)
        clone.vars = batch.vars
        clone.kinds = batch.kinds
        clone.ips = batch.ips
        clone.steps = batch.steps
        clone.prov_codes = batch.prov_codes
        clone.prov_table = batch.prov_table
        clone.taints = batch.taints
        keyed.append((clone, base))
    return keyed


def _clock_key_gate_seconds():
    """The event count and :func:`_paired_passes` of a FastTrack pass
    that enumerates each batch through the merge's ``run_end`` bisection
    (keyed on ``key_tscs``) and feeds the resulting runs — the
    splice-merge loop shape of the pipeline — on the aliased and on the
    separate key layout."""
    from repro.detector.events import EVENT_KIND_SYNC

    _accesses, chunks = locality_stream(events=BATCH_STREAM_EVENTS)
    keyed = _clock_key_chunks(chunks)
    last_bound = (float("inf"), EVENT_KIND_SYNC, -1)

    def one_pass(chunk_list):
        detector = FastTrack()
        d_feed = detector.feed_batch
        t0 = time.perf_counter()
        for index, (batch, base) in enumerate(chunk_list):
            n = len(batch)
            bound = (chunk_list[index + 1][0].key_at(0)
                     if index + 1 < len(chunk_list) else last_bound)
            pos = 0
            while pos < n:
                end = batch.run_end(pos, bound)
                if end <= pos:
                    end = n
                d_feed(batch, pos, end, base + pos)
                pos = end
        return time.perf_counter() - t0, detector

    reference = one_pass(chunks)[1].races

    def timed(chunk_list):
        elapsed, detector = one_pass(chunk_list)
        assert detector.races == reference, \
            "identity merge keys changed verdicts"
        return elapsed

    return len(_accesses), _paired_passes(
        lambda: timed(chunks), lambda: timed(keyed), CLOCK_KEY_PAIRS)


def _controller_seconds(program):
    """:func:`_paired_passes` of free machine runs and of runs under a
    pair targeter whose pair never occurs — the one confirmation
    replay shape that runs a program to its end (every other replay
    ends when its controller fires, diverges or runs out of budget):
    the targeter stays active and is asked to :meth:`pick` at every
    instruction boundary, and the machine's seeded scheduler runs one
    instruction per boundary."""
    # Instruction pointers past the program's end: no thread ever parks
    # there and no access ever matches, so the pair never occurs.
    nowhere = len(program.instructions)

    def free():
        t0 = time.perf_counter()
        Machine(program, num_cores=4, seed=1).run()
        return time.perf_counter() - t0

    def driven():
        controller = PairTargetController(nowhere, nowhere + 1, 0)
        t0 = time.perf_counter()
        Machine(program, num_cores=4, seed=1, controller=controller).run()
        elapsed = time.perf_counter() - t0
        assert controller.active and not controller.fired, \
            "gate expects an unfired replay run to the program's end"
        return elapsed

    return _paired_passes(free, driven, CONTROLLER_PAIRS)


def main():
    scale = WorkloadScale(iterations=150, data_words=64)
    program = PARSEC_WORKLOADS["blackscholes"].build(scale)

    bare_s, traced_s, trace_overhead = _trace_seconds()
    print(f"tracing table2-confirm (median of {TRACE_PAIRS} pass pairs): "
          f"bare machine {bare_s * 1e3:.1f} ms, trace_run "
          f"{traced_s * 1e3:.1f} ms -> {100 * trace_overhead:+.1f}% "
          f"(ceiling {100 * MAX_TRACE_OVERHEAD:+.0f}%)")

    replay_rates = {}
    for workload, floor in MIN_REPLAY_KSTEPS_PER_S.items():
        replay_rates[workload] = _perfbench_replay_rate(workload)
        print(f"perfbench {workload} replay: "
              f"{replay_rates[workload]:,.0f} ksteps/s (floor {floor:,})")

    plan_rate, plan_steps = _planning_rate(_table2_streams())
    print(f"witness planning on table2-confirm: {plan_steps:,} steps at "
          f"{plan_rate:,.0f} ksteps/s (floor {MIN_PLAN_KSTEPS_PER_S:,})")

    detect_rates = {}
    for workload, floor in MIN_DETECT_MEVENTS_PER_S.items():
        detect_rates[workload], events = detect_rate(
            detect_streams(workload))
        print(f"fasttrack detection on {workload} (best of "
              f"{DETECT_PASSES}): {events:,} events at "
              f"{detect_rates[workload]:.2f} Mevents/s (floor {floor})")

    key_events, (aliased_s, keyed_s, clock_key_overhead) = \
        _clock_key_gate_seconds()
    print(f"clock merge keys (median of {CLOCK_KEY_PAIRS} pass pairs): "
          f"aliased {aliased_s * 1e3:.1f} ms, "
          f"separate key_tscs {keyed_s * 1e3:.1f} ms -> "
          f"{100 * clock_key_overhead:+.1f}% "
          f"({key_events / keyed_s:,.0f} events/sec)")

    free_s, driven_s, controller_overhead = _controller_seconds(program)
    print(f"pair targeter (unfired replay run to the end, "
          f"median of {CONTROLLER_PAIRS} run pairs): "
          f"free {free_s * 1e3:.1f} ms, controlled {driven_s * 1e3:.1f} ms "
          f"-> {100 * controller_overhead:+.1f}% "
          f"(ceiling {100 * MAX_CONTROLLER_OVERHEAD:+.0f}%)")

    fanout_s, fanout_overhead = _fanout_overhead()
    print(f"fan-out of {FANOUT_ITEMS} x {FANOUT_SLEEP_S * 1e3:.0f} ms "
          f"sleeps at jobs=2 (best of {FANOUT_PASSES}): "
          f"{fanout_s * 1e3:.1f} ms -> {100 * fanout_overhead:+.1f}% over "
          f"ideal (ceiling {100 * MAX_FANOUT_OVERHEAD:+.0f}%)")

    failures = []
    if fanout_overhead > MAX_FANOUT_OVERHEAD:
        failures.append(
            f"supervised_map costs {100 * fanout_overhead:.1f}% over ideal "
            f"parallelism (ceiling {100 * MAX_FANOUT_OVERHEAD:.0f}%) — "
            f"workers are supposed to be forked once per call and reused")
    if trace_overhead > MAX_TRACE_OVERHEAD:
        failures.append(
            f"trace_run costs {100 * trace_overhead:.1f}% over the bare "
            f"machine on the table2-confirm programs (ceiling "
            f"{100 * MAX_TRACE_OVERHEAD:.0f}%) — PEBS is supposed to "
            f"count down in the run loop and build an access event only "
            f"when a sample fires")
    if controller_overhead > MAX_CONTROLLER_OVERHEAD:
        failures.append(
            f"an unfired pair targeter costs "
            f"{100 * controller_overhead:.1f}% over a controller-free run "
            f"(ceiling {100 * MAX_CONTROLLER_OVERHEAD:.0f}%) — the run "
            f"loop is supposed to ask it once per instruction boundary")
    if clock_key_overhead > MAX_CLOCK_KEY_OVERHEAD:
        failures.append(
            f"separate clock merge-key column costs "
            f"{100 * clock_key_overhead:.1f}% on the columnar feed path "
            f"(budget {100 * MAX_CLOCK_KEY_OVERHEAD:.0f}%) — corrected-"
            f"key ordering is supposed to ride the same bisects")
    for workload, floor in MIN_DETECT_MEVENTS_PER_S.items():
        if detect_rates[workload] < floor:
            failures.append(
                f"FastTrack detects only {detect_rates[workload]:.2f} "
                f"Mevents/s on the {workload} streams (floor {floor}) — "
                f"an event is supposed to become an Access only when it "
                f"is reported")
    if plan_rate < MIN_PLAN_KSTEPS_PER_S:
        failures.append(
            f"witness planning only {plan_rate:,.0f} ksteps/s on the "
            f"table2-confirm streams (floor {MIN_PLAN_KSTEPS_PER_S:,})")
    for workload, floor in MIN_REPLAY_KSTEPS_PER_S.items():
        if replay_rates[workload] < floor:
            failures.append(
                f"window replay only {replay_rates[workload]:,.0f} "
                f"ksteps/s on perfbench {workload} (floor {floor:,})")
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
