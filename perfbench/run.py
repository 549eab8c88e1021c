"""End-to-end benchmark of ProRace: trace -> container -> analyze ->
confirm, split by layer.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload table2-confirm --seed 0 \\
        --seconds 20 --trace 0

It imports ProRace from the checkout's ``src`` directory.  With
``--trace 0`` it runs untraced passes over the workload's inputs for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
spends half the time on untraced passes and half on traced ones, then
times serial against 2-shard detection, and reports the per-layer
metrics.  Every pass is checked against the known answers.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 when every
check passed.  README.md in this directory describes the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end ProRace benchmark, split by layer.")
    parser.add_argument("--workload", required=True,
                        help="table2-confirm, clean-long or "
                             "lossy-reconcile")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; trace and fault-plan seeds "
                             "derive from it")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced passes and report the "
                             "per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ProRace source under {SOURCE}")
    # The benchmark's own modules import repro, so they load only once
    # this checkout's source is first on the path.
    sys.path.insert(0, str(SOURCE))
    import bench

    return bench.run(args, ROOT / "BENCHMARK.json")


if __name__ == "__main__":
    sys.exit(main())
