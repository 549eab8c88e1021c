"""CI perf smoke: replay, detection and race-DB speed floors.

A deliberately small, fast guard (seconds, not minutes) run on every CI
build; the full measurements live in ``perfbench/``,
``benchmarks/test_replay_speed.py`` and ``docs/performance.md``.  Fails
loudly if window replay on any perfbench workload drops below its floor
in :data:`MIN_REPLAY_KSTEPS_PER_S` (``replay.ksteps_per_s``), or if the
detector-backend registry's indirection makes FastTrack's ``access``
path measurably slower than constructing FastTrack directly (the
backend refactor's <5% contract against the BENCH_replay.json
fast-path numbers).

Also guards the fleet race database: redelivered bundles must be
refused on the cheap in-memory path (no append, no fsync), so the
dedup path has to be decisively faster than first-time inserts, and
inserts themselves must clear a generous absolute floor.

Run directly: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from detect_stream import locality_stream, warm
from repro.detector.events import Access, AccessKind, WitnessStep
from repro.detector.fasttrack import FastTrack
from repro.detector.registry import create_backend
from repro.fleet import RaceDatabase
from repro.machine import Machine, ScheduleController
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
#: Registry indirection budget over direct FastTrack on its per-event
#: ``access`` path, which the multi-backend detection feed and the
#: default ``feed_batch`` call (both loops pre-bind the method, so
#: anything above this is a real protocol regression, not noise).
MAX_REGISTRY_OVERHEAD = 0.05
REPEATS = 3
#: The registry, clock-key and controller gates each compare two sides
#: whose passes take a few milliseconds.  Timed as two blocks, one after
#: the other, a burst of load on a shared runner that lands on one block
#: reads as tens of percent of overhead.  So each gate times this many
#: back-to-back pairs of passes, one of each side, and reads the median
#: over the pairs of one side's time over the other's (see
#: :func:`_paired_passes`).  A pass of the registry gate takes 35-60 ms
#: on a shared 2-vCPU VM, a clock-key pass about 8 ms, a machine run of
#: the controller gate 6-10 ms.
REGISTRY_PAIRS = 20
CLOCK_KEY_PAIRS = 100
CONTROLLER_PAIRS = 30
#: Race-DB floors: dedup refusal skips the append+fsync entirely, so it
#: must beat first-time inserts by a wide margin; the insert floor is
#: set far below local numbers (fsync-per-append on CI disks is slow,
#: but not *that* slow).
MIN_DEDUP_SPEEDUP = 3.0
MIN_RACEDB_INSERTS_PER_SEC = 100.0
RACEDB_BUNDLES = 300
#: The columnar feed_batch fast path must decisively beat the scalar
#: access() loop on the replay-shaped locality stream (measured locally
#: ~3.3x; BENCH_detect.json tracks the full number) — it is the feed of
#: every single-backend analysis, so it must never be *slower* than
#: the same events fed one at a time.  The floor leaves room for noisy
#: CI runners while still catching any real regression.
MIN_BATCH_SPEEDUP = 1.5
BATCH_STREAM_EVENTS = 30_000
#: Clock reconciliation keys the merged stream on a separate
#: ``key_tscs`` column (uncertainty-clamped merge keys); with the flag
#: off the column aliases ``tscs`` and the layout is bit-identical to
#: pre-clock builds.  The corrected-key layout must stay within 5% of
#: the aliased one on the columnar feed path — same array type, same
#: bisects, so anything above this is a real keying regression.
MAX_CLOCK_KEY_OVERHEAD = 0.05
#: Confirmation-replay tax: a ScheduleController that diverges early
#: (the worst case — an unconfirmed replay pays the controller hooks
#: and then free-runs the whole program) must cost <10% wall clock over
#: an identical controller-free run.
MAX_CONTROLLER_OVERHEAD = 0.10


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


def _detector_stream(events=40_000):
    """The same read-heavy stream shape BENCH_replay's fast-path
    measurement uses (most accesses hit the same-epoch fast paths)."""
    accesses = []
    for i in range(events):
        tid = 1 + ((i >> 6) & 1)
        var = (0x1000 + (i % 64) * 8, 0)
        kind = AccessKind.WRITE if i % 16 == 0 else AccessKind.READ
        accesses.append(Access(tid=tid, var=var, kind=kind,
                               ip=i % 97, tsc=float(i),
                               provenance="bench"))
    return accesses


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


def _detector_pass(factory, accesses):
    """Seconds for one full detector pass through a pre-bound ``access``
    method, the per-event call of the multi-backend detection feed."""
    detector = factory()
    d_access = detector.access
    t0 = time.perf_counter()
    for access in accesses:
        d_access(access)
    return time.perf_counter() - t0


def _detector_seconds(accesses):
    """:func:`_paired_passes` of FastTrack passes over *accesses*,
    constructed directly and through the registry."""
    return _paired_passes(
        lambda: _detector_pass(FastTrack, accesses),
        lambda: _detector_pass(lambda: create_backend("fasttrack"),
                               accesses),
        REGISTRY_PAIRS,
    )


def _batch_gate_seconds(repeats=5):
    """Best-of-N (scalar seconds, batched seconds) for one FastTrack
    pass over the shared replay-shaped locality stream — the batched
    pass runs the exact ``feed_batch`` spans the pipeline's splice
    merge emits, and both passes must agree report-for-report."""
    accesses, chunks = locality_stream(events=BATCH_STREAM_EVENTS)
    warm(chunks)
    best_scalar = best_batched = None
    for _ in range(repeats):
        scalar = FastTrack()
        d_access = scalar.access
        t0 = time.perf_counter()
        for access in accesses:
            d_access(access)
        elapsed = time.perf_counter() - t0
        if best_scalar is None or elapsed < best_scalar:
            best_scalar = elapsed

        batched = FastTrack()
        d_feed = batched.feed_batch
        t0 = time.perf_counter()
        for batch, base in chunks:
            d_feed(batch, 0, len(batch), base)
        elapsed = time.perf_counter() - t0
        if best_batched is None or elapsed < best_batched:
            best_batched = elapsed
        assert batched.races == scalar.races, "batched verdicts diverged"
        assert batched.accesses_processed == scalar.accesses_processed
    return len(accesses), best_scalar, best_batched


def _clock_key_chunks(chunks):
    """The locality chunks re-laid-out the way an engaged clock model
    builds them: ``key_tscs`` a *separate* identity-populated column
    instead of aliasing ``tscs``.  Every other column (and the warmed
    ``next_change`` index) is shared, so a timing delta isolates the
    cost of the second timestamp array."""
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
        clone._nxt = batch._nxt
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
    warm(chunks)
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
    diverging controller — the confirmation service's
    unconfirmed replay shape: the schedule never matches, the
    controller burns its step budget, deactivates, and the machine
    free-runs the rest."""
    # A schedule step no instruction can ever match: the controller
    # spends its whole budget, diverges, and hands the run back.
    steps = [WitnessStep(tid=0, op="write", detail=10**9)]

    def free():
        t0 = time.perf_counter()
        Machine(program, num_cores=4, seed=1).run()
        return time.perf_counter() - t0

    def driven():
        controller = ScheduleController(steps, step_budget=64)
        t0 = time.perf_counter()
        Machine(program, num_cores=4, seed=1, controller=controller).run()
        elapsed = time.perf_counter() - t0
        assert controller.diverged, "gate expects an unconfirmed replay"
        return elapsed

    return _paired_passes(free, driven, CONTROLLER_PAIRS)


def _racedb_seconds(bundles=RACEDB_BUNDLES):
    """Best-of-N (insert seconds, dedup-refusal seconds) for folding
    *bundles* findings into a fresh on-disk race DB and then replaying
    the exact same deliveries against it."""
    sigs = [
        {"workload": "bench", "variable": f"v{i % 32}",
         "context": ["a", "b"], "pair": [i % 32, 1 + i % 32],
         "key": f"k{i % 32}", "desc": "bench race"}
        for i in range(bundles)
    ]
    best = None
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            with RaceDatabase(Path(tmp) / "races.db") as db:
                t0 = time.perf_counter()
                for i, sig in enumerate(sigs):
                    db.apply_bundle(f"b{i:05d}", [sig], probability=0.5)
                insert = time.perf_counter() - t0
                t0 = time.perf_counter()
                for i, sig in enumerate(sigs):
                    db.apply_bundle(f"b{i:05d}", [sig], probability=0.5)
                dedup = time.perf_counter() - t0
                assert db.double_counted == 0
        if best is None or insert < best[0]:
            best = (insert, dedup)
    return best


def main():
    scale = WorkloadScale(iterations=150, data_words=64)
    program = PARSEC_WORKLOADS["blackscholes"].build(scale)

    replay_rates = {}
    for workload, floor in MIN_REPLAY_KSTEPS_PER_S.items():
        replay_rates[workload] = _perfbench_replay_rate(workload)
        print(f"perfbench {workload} replay: "
              f"{replay_rates[workload]:,.0f} ksteps/s (floor {floor:,})")

    accesses = _detector_stream()
    direct, registered, registry_overhead = _detector_seconds(accesses)
    print(f"fasttrack fast path (median of {REGISTRY_PAIRS} pass pairs): "
          f"direct {direct * 1e3:.1f} ms, "
          f"via registry {registered * 1e3:.1f} ms -> "
          f"{100 * registry_overhead:+.1f}% "
          f"({len(accesses) / registered:,.0f} events/sec)")

    events, scalar_s, batched_s = _batch_gate_seconds()
    batch_speedup = scalar_s / batched_s
    print(f"columnar feed_batch: scalar {scalar_s * 1e3:.1f} ms, "
          f"batched {batched_s * 1e3:.1f} ms -> {batch_speedup:.2f}x "
          f"({events / batched_s:,.0f} events/sec)")

    key_events, (aliased_s, keyed_s, clock_key_overhead) = \
        _clock_key_gate_seconds()
    print(f"clock merge keys (median of {CLOCK_KEY_PAIRS} pass pairs): "
          f"aliased {aliased_s * 1e3:.1f} ms, "
          f"separate key_tscs {keyed_s * 1e3:.1f} ms -> "
          f"{100 * clock_key_overhead:+.1f}% "
          f"({key_events / keyed_s:,.0f} events/sec)")

    insert, dedup = _racedb_seconds()
    insert_rate = RACEDB_BUNDLES / insert
    dedup_speedup = insert / dedup
    print(f"race DB: {RACEDB_BUNDLES} inserts in {insert * 1e3:.1f} ms "
          f"({insert_rate:,.0f}/sec), redelivery refused in "
          f"{dedup * 1e3:.1f} ms -> {dedup_speedup:.1f}x")

    free_s, driven_s, controller_overhead = _controller_seconds(program)
    print(f"schedule controller (diverging/unconfirmed replay, "
          f"median of {CONTROLLER_PAIRS} run pairs): "
          f"free {free_s * 1e3:.1f} ms, controlled {driven_s * 1e3:.1f} ms "
          f"-> {100 * controller_overhead:+.1f}%")

    failures = []
    if controller_overhead > MAX_CONTROLLER_OVERHEAD:
        failures.append(
            f"schedule controller costs {100 * controller_overhead:.1f}% "
            f"on an unconfirmed replay "
            f"(budget {100 * MAX_CONTROLLER_OVERHEAD:.0f}%) — the "
            f"run loop's controller hooks are supposed to be free once "
            f"the controller deactivates")
    if insert_rate < MIN_RACEDB_INSERTS_PER_SEC:
        failures.append(
            f"race DB inserts only {insert_rate:,.0f}/sec "
            f"(floor {MIN_RACEDB_INSERTS_PER_SEC:,.0f}/sec)")
    if dedup_speedup < MIN_DEDUP_SPEEDUP:
        failures.append(
            f"race DB dedup refusal only {dedup_speedup:.1f}x faster "
            f"than insert (floor {MIN_DEDUP_SPEEDUP}x) — is redelivery "
            f"hitting the disk?")
    if clock_key_overhead > MAX_CLOCK_KEY_OVERHEAD:
        failures.append(
            f"separate clock merge-key column costs "
            f"{100 * clock_key_overhead:.1f}% on the columnar feed path "
            f"(budget {100 * MAX_CLOCK_KEY_OVERHEAD:.0f}%) — corrected-"
            f"key ordering is supposed to ride the same bisects")
    if batch_speedup < MIN_BATCH_SPEEDUP:
        failures.append(
            f"columnar feed_batch only {batch_speedup:.2f}x vs the "
            f"scalar access loop (floor {MIN_BATCH_SPEEDUP}x) — the "
            f"pipeline default is supposed to be the fast path")
    if registry_overhead > MAX_REGISTRY_OVERHEAD:
        failures.append(
            f"registry indirection costs {100 * registry_overhead:.1f}% "
            f"on the FastTrack fast path "
            f"(budget {100 * MAX_REGISTRY_OVERHEAD:.0f}%)")
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
