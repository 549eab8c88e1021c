"""Detection throughput: FastTrack over the perfbench workloads' merged
streams, and the projected address-shard curve.

* **Real streams.**  For each perfbench workload, FastTrack's rate over
  the merged batch streams of its seed-0 inputs
  (``perf_smoke.detect_rate``: the fastest of several passes, each
  checked report for report against the oracle
  ``tests.helpers.ReferenceFastTrack``).  ``perf_smoke.py`` gates two of
  them (``MIN_DETECT_MEVENTS_PER_S``).
* **Projected shard curve.**  Address-sharding splits the work: each
  shard's pass touches only its own variables, so the critical path
  (the slowest shard) shrinks as shards are added — measured here as
  per-shard wall time on one core over the synthetic locality stream
  (``detect_stream.py``) and reported as the projected speedup of a
  perfectly parallel run (real fan-out wall-clock lives in perfbench's
  ``detect.shard2_*``).  Every shard count reproduces the serial
  reports, in order.

Numbers go to ``benchmarks/results/BENCH_detect.json``; assertions are
shape-level with slack for CI-runner noise.
"""

import heapq
import json
import time
from operator import attrgetter

from repro.detector.fasttrack import FastTrack

from conftest import write_table
from detect_stream import locality_stream
from perf_smoke import DETECT_PASSES, detect_rate, detect_streams

WORKLOADS = ("table2-confirm", "clean-long", "lossy-reconcile")
EVENTS = 60_000
REPEATS = 7
SHARD_COUNTS = (1, 2, 4)


def _best(fn, repeats=REPEATS):
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _serial_pass(chunks):
    detector = FastTrack()
    d_feed = detector.feed_batch
    for batch, base in chunks:
        d_feed(batch, 0, len(batch), base)
    return detector


def _shard_pass(chunks, shard, nshards):
    detector = FastTrack()
    d_feed = detector.feed_batch_shard
    for batch, base in chunks:
        d_feed(batch, 0, len(batch), base, shard, nshards)
    return detector


def measure():
    results = {"workloads": {}}
    for name in WORKLOADS:
        rate, events = detect_rate(detect_streams(name))
        results["workloads"][name] = {"events": events,
                                      "mevents_per_s": rate}

    accesses, chunks = locality_stream(events=EVENTS)
    n = len(accesses)
    serial_s, serial = _best(lambda: _serial_pass(chunks))
    assert serial.accesses_processed == n
    sharded = {}
    for nshards in SHARD_COUNTS:
        shard_seconds = []
        shard_events = []
        shard_races = []
        for shard in range(nshards):
            seconds, detector = _best(
                lambda s=shard: _shard_pass(chunks, s, nshards),
                repeats=max(3, REPEATS - 2))
            shard_seconds.append(seconds)
            shard_events.append(detector.accesses_processed)
            shard_races.append(detector.races)
        merged = list(heapq.merge(*shard_races, key=attrgetter("index")))
        # Exactness: the union of per-shard verdicts, merged on their
        # stream positions, IS the serial verdict list — order included.
        assert merged == serial.races
        assert sum(shard_events) == n
        critical = max(shard_seconds)
        sharded[str(nshards)] = {
            "per_shard_seconds": shard_seconds,
            "per_shard_events": shard_events,
            "critical_path_seconds": critical,
            "projected_events_per_sec": n / critical,
            "projected_speedup_vs_serial": serial_s / critical,
        }
    results["locality_stream"] = {
        "events": n,
        "repeats": REPEATS,
        "races": len(serial.races),
        "serial_seconds": serial_s,
        "sharded": sharded,
    }
    return results


def test_detect_throughput(benchmark, profile, results_dir):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    (results_dir / "BENCH_detect.json").write_text(
        json.dumps(results, indent=2) + "\n")

    lines = [f"FastTrack over the seed-0 merged streams of each perfbench "
             f"workload (best of {DETECT_PASSES} passes, reports equal to "
             f"ReferenceFastTrack's)", ""]
    header = f"{'workload':<18s}{'events':>9s}{'Mevents/s':>11s}"
    lines += [header, "-" * len(header)]
    for name in WORKLOADS:
        row = results["workloads"][name]
        lines.append(f"{name:<18s}{row['events']:>9,d}"
                     f"{row['mevents_per_s']:>11.2f}")
    stream = results["locality_stream"]
    lines += ["",
              f"Projected address-shard curve on the synthetic locality "
              f"stream ({stream['events']} events, min of {REPEATS}, "
              f"{stream['races']} races — identical in every config)",
              ""]
    header = (f"{'shards':>7s}{'critical path':>15s}"
              f"{'projected ev/s':>16s}{'x serial':>10s}")
    lines += [header, "-" * len(header)]
    for nshards in SHARD_COUNTS:
        row = stream["sharded"][str(nshards)]
        lines.append(
            f"{nshards:7d}"
            f"{row['critical_path_seconds'] * 1e3:12.1f} ms"
            f"{row['projected_events_per_sec']:>16,.0f}"
            f"{row['projected_speedup_vs_serial']:10.2f}")
    write_table(results_dir, "BENCH_detect", lines)

    # Address-sharding must actually split the work: at 4 shards the
    # slowest shard carries well under the whole stream's cost.
    one = stream["sharded"]["1"]["critical_path_seconds"]
    four = stream["sharded"]["4"]["critical_path_seconds"]
    assert four < one / 1.5
    # Every shard got a non-trivial slice (the hash spreads addresses).
    assert min(stream["sharded"]["4"]["per_shard_events"]) > 0


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
