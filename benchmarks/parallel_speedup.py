"""Wall-clock speedup of the parallel detection sweep (§7.6).

The paper argues the offline stage "can be easily parallelized"; the
detection sweep is the embarrassingly parallel end of that claim — every
(bug, period, seed) trial is an independent trace + analysis.  This
benchmark times ``detection_sweep`` serially and fanned out over
worker processes on one Table 2 bug, verifies the two grids are
identical, and reports the speedup.

Run directly::

    PYTHONPATH=src python benchmarks/parallel_speedup.py [--jobs N]

or via the bench harness (skipped on machines with < 4 CPUs)::

    python -m pytest benchmarks/test_parallel_speedup.py
"""

from __future__ import annotations

import argparse
import os
import time

from repro.analysis import detection_sweep
from repro.workloads import RACE_BUGS, WorkloadScale

#: One memory-indirect Table 2 bug: enough per-trial work that process
#: startup does not dominate.
BUG_NAME = "aget-bug2"
PERIODS = (200, 1_000)
RUNS = 8
SCALE = WorkloadScale(iterations=30)


def run_speedup(jobs: int):
    """Time serial vs parallel sweeps; return (serial_s, parallel_s,
    serial_result, parallel_result)."""
    bugs = {BUG_NAME: RACE_BUGS[BUG_NAME]}

    begin = time.perf_counter()
    serial = detection_sweep(bugs, SCALE, periods=PERIODS, runs=RUNS,
                             jobs=1)
    serial_s = time.perf_counter() - begin

    begin = time.perf_counter()
    parallel = detection_sweep(bugs, SCALE, periods=PERIODS, runs=RUNS,
                               jobs=jobs)
    parallel_s = time.perf_counter() - begin
    return serial_s, parallel_s, serial, parallel


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    serial_s, parallel_s, serial, parallel = run_speedup(args.jobs)
    assert serial.cells == parallel.cells, \
        "parallel sweep must be bit-identical to serial"

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(f"bug={BUG_NAME} periods={PERIODS} runs={RUNS} "
          f"cpus={os.cpu_count()}")
    print(f"  serial  (jobs=1):         {serial_s:8.2f}s")
    print(f"  parallel (jobs={args.jobs}, proc): {parallel_s:8.2f}s")
    print(f"  speedup: {speedup:.2f}x   cells identical: yes")
    print(f"  detections: {serial.cells[BUG_NAME]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
