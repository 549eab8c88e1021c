#!/usr/bin/env python3
"""Datacenter flow: trace files shipped from production to analysis.

The paper's deployment (§3): production machines continuously write
traces over a dedicated network; analysis machines "periodically process
the trace [and] delete the ones analyzed in prior periods".  This script
plays both roles:

1. *Production*: N seeded runs of the cherokee server bug, each traced
   at a production-budget period and serialized to a ``.prtr`` file.
2. *Analysis fleet*: each trace file is loaded, analyzed, reported, and
   deleted; a fleet summary aggregates what the period's batch found.
   One analysis runs serially; a real fleet spreads the trace files
   over its machines (``repro fleet`` runs that flow with worker
   processes).

Run:  python examples/datacenter_fleet.py
"""

import tempfile
from pathlib import Path

from repro import OfflinePipeline, trace_run
from repro.analysis import FleetSummary
from repro.tracing import read_trace, write_trace
from repro.workloads import RACE_BUGS, WorkloadScale

RUNS = 8
PERIOD = 400


def main() -> None:
    bug = RACE_BUGS["cherokee-0.9.2"]
    program = bug.build(WorkloadScale(iterations=30))
    spool = Path(tempfile.mkdtemp(prefix="prorace-spool-"))
    print(f"production: tracing {RUNS} runs of {bug.name} at period "
          f"{PERIOD}, spooling to {spool}")

    # --- production boxes: trace and ship.
    total_bytes = 0
    for seed in range(RUNS):
        bundle = trace_run(program, period=PERIOD, seed=seed)
        total_bytes += write_trace(bundle, spool / f"run-{seed:03d}.prtr")
    print(f"  spooled {total_bytes} bytes "
          f"({total_bytes // RUNS} per run)\n")

    # --- analysis machines: drain the spool.
    pipeline = OfflinePipeline(program)
    summary = FleetSummary()
    for trace_file in sorted(spool.glob("*.prtr")):
        bundle = read_trace(trace_file, program=program)
        result = pipeline.analyze(bundle)
        status = (
            f"{len(result.races)} race(s)" if result.races else "clean"
        )
        print(f"analysis: {trace_file.name}: {status}, "
              f"{result.replay.stats.recovered} accesses reconstructed")
        summary.add(result)
        trace_file.unlink()  # processed traces are deleted (§3)

    print()
    print(summary.render(program))
    assert summary.runs_with_races > 0
    remaining = list(spool.glob("*.prtr"))
    assert not remaining
    spool.rmdir()
    print("\nspool drained; the logger race was isolated from "
          f"{summary.runs_with_races}/{RUNS} production runs.")


if __name__ == "__main__":
    main()
