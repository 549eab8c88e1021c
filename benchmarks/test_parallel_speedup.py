"""Parallel detection sweep: ≥2x wall-clock speedup at jobs=4 (§7.6).

Requires a machine with at least 4 CPUs — the claim is about real
parallel hardware, and worker processes on a 1-core container can
only add overhead.  The identity half of the claim (bit-identical grids) is
covered unconditionally by tier-1 ``tests/test_parallel_pipeline.py``.
"""

import os

import pytest

from parallel_speedup import run_speedup

from conftest import write_table


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup measurement needs >= 4 CPUs")
def test_detection_sweep_speedup(results_dir):
    serial_s, parallel_s, serial, parallel = run_speedup(jobs=4)
    assert serial.cells == parallel.cells
    speedup = serial_s / parallel_s
    write_table(results_dir, "parallel_speedup", [
        f"detection_sweep, jobs=4 worker processes, {os.cpu_count()} cpus",
        f"serial:   {serial_s:8.2f}s",
        f"parallel: {parallel_s:8.2f}s",
        f"speedup:  {speedup:8.2f}x",
    ])
    assert speedup >= 2.0, f"expected >= 2x speedup, got {speedup:.2f}x"
