"""Replay speed: micro-op replay and FastTrack fast paths.

Two measurements of the replay path (``docs/performance.md``), written
to ``benchmarks/results/BENCH_replay.json``:

* the forward-replay hot loop (reconstruction phase, decode excluded)
  and end-to-end ``replay_bundle``, in steps per second, and
* the FastTrack fast paths' events/sec rate.

Assertions are shape-level with slack for CI-runner noise; the JSON keeps
the exact measured numbers for the docs.  perfbench's
``replay.ksteps_per_s`` is the end-to-end replay number that CI gates
(``benchmarks/perf_smoke.py``).
"""

import json
import time

from repro.analysis import OfflinePipeline
from repro.detector.events import Access, AccessKind
from repro.detector.fasttrack import FastTrack
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import PARSEC_WORKLOADS

from conftest import write_table

WORKLOAD_NAMES = ("blackscholes", "swaptions")
PERIOD = 50
REPEATS = 3


def _best(fn, repeats=REPEATS):
    """Wall-clock min over *repeats* runs (robust against scheduler
    noise); returns (seconds, last result)."""
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _forward_hot_loop(program, bundle):
    """Reconstruction-phase seconds (decode excluded), forward mode —
    the micro-op executor's hot loop."""
    runs = [OfflinePipeline(program, mode="forward").analyze(bundle)
            for _ in range(REPEATS)]
    seconds = min(r.timings.reconstruction_seconds for r in runs)
    steps = runs[0].replay.stats.executed_steps
    return {"total_steps": steps, "seconds": seconds,
            "steps_per_sec": steps / seconds}


def _bundle_replay(program, bundle):
    """End-to-end ``replay_bundle`` (decode + full fixed-point replay)."""
    seconds, result = _best(
        lambda: ReplayEngine(program).replay_bundle(bundle))
    steps = result.stats.executed_steps
    return {"total_steps": steps, "seconds": seconds,
            "steps_per_sec": steps / seconds}


def _fasttrack_events():
    """Detector throughput on a read-heavy stream (the shape replay
    produces: most accesses re-read a location in the same epoch and
    take the allocation-free fast path)."""
    accesses = []
    for i in range(40_000):
        # Threads swap over the variable set every 64 accesses, so
        # unsynchronized cross-thread pairs (= races) do occur.
        tid = 1 + ((i >> 6) & 1)
        var = (0x1000 + (i % 64) * 8, 0)
        kind = AccessKind.WRITE if i % 16 == 0 else AccessKind.READ
        accesses.append(Access(tid=tid, var=var, kind=kind,
                               ip=i % 97, tsc=float(i),
                               provenance="bench"))

    def run():
        ft = FastTrack()
        for access in accesses:
            ft.access(access)
        return ft

    seconds, ft = _best(run)
    return {
        "events": len(accesses),
        "seconds": seconds,
        "events_per_sec": len(accesses) / seconds,
        "races_found": len(ft.races),
    }


def measure(profile):
    results = {"profile": profile.name, "period": PERIOD, "workloads": {}}
    for name in WORKLOAD_NAMES:
        program = PARSEC_WORKLOADS[name].build(profile.workload_scale)
        bundle = trace_run(program, period=PERIOD, seed=1)
        results["workloads"][name] = {
            "forward_hot_loop": _forward_hot_loop(program, bundle),
            "bundle_replay": _bundle_replay(program, bundle),
        }
    results["fasttrack"] = _fasttrack_events()
    return results


def test_replay_speed(benchmark, profile, results_dir):
    results = benchmark.pedantic(lambda: measure(profile), rounds=1,
                                 iterations=1)

    (results_dir / "BENCH_replay.json").write_text(
        json.dumps(results, indent=2) + "\n")

    header = f"{'Workload':14s}{'hot-loop k/s':>13s}{'bundle k/s':>12s}"
    lines = [f"(period {PERIOD}, min of {REPEATS}; "
             f"k/s = thousand replay steps per second)",
             header, "-" * len(header)]
    for name, row in results["workloads"].items():
        lines.append(
            f"{name:14s}"
            f"{row['forward_hot_loop']['steps_per_sec'] / 1e3:13.0f}"
            f"{row['bundle_replay']['steps_per_sec'] / 1e3:12.0f}"
        )
    ft = results["fasttrack"]
    lines.append("")
    lines.append(f"FastTrack: {ft['events_per_sec']:,.0f} events/sec "
                 f"({ft['events']} events)")
    write_table(results_dir, "BENCH_replay", lines)

    assert ft["events_per_sec"] > 100_000
    assert ft["races_found"] > 0
