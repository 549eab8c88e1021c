"""The online-overhead cost model.

Running the PMU simulation does not slow the simulated application (the
observers are passive), so runtime overhead is *estimated* from the run's
accounting, using the driver cost constants (:mod:`repro.pmu.drivers`)
plus the PT and synchronization-tracing constants below.  DESIGN.md §2
documents this substitution; EXPERIMENTS.md records the calibration
against the paper's reported points (Figures 6, 7, 10; §7.2's overhead
breakdown).

The overlap rule captures §7.2's observation that network-I/O-dominant
applications hide tracing almost entirely: tracing consumes CPU cycles,
and a run's idle (I/O wait) cycles absorb them before any wall-clock time
is added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..tracing.bundle import TraceBundle

#: Simulated clock: one machine cycle = 1 ns (1 GHz).  Used to convert
#: cycle counts and trace bytes into the paper's per-second units.
SIMULATED_CLOCK_HZ = 1_000_000_000

#: Cycles the PT hardware steals per recorded branch packet (tracking is
#: off the critical path; the residual cost is tiny — §4.2).
PT_CYCLES_PER_PACKET = 0.1

#: Cycles per PT trace byte written out by the perf tool.
PT_CYCLES_PER_BYTE = 0.05

#: Cycles per intercepted synchronization / allocation operation (the
#: LD_PRELOAD shim: one log append + TSC read).
SYNC_TRACE_CYCLES = 0.2


@dataclass(frozen=True)
class OverheadEstimate:
    """Tracing overhead of one traced run, by component."""

    pebs_cycles: float
    pt_cycles: float
    sync_cycles: float
    baseline_wall_cycles: int
    cpu_cycles: int

    @property
    def tracing_cycles(self) -> float:
        return self.pebs_cycles + self.pt_cycles + self.sync_cycles

    @property
    def traced_wall_cycles(self) -> float:
        """Wall-clock with tracing: idle (I/O wait) absorbs tracing work."""
        return max(
            self.baseline_wall_cycles,
            self.cpu_cycles + self.tracing_cycles,
        )

    @property
    def overhead(self) -> float:
        """Fractional slowdown (0.026 = 2.6%)."""
        if self.baseline_wall_cycles == 0:
            return 0.0
        return self.traced_wall_cycles / self.baseline_wall_cycles - 1.0

    @property
    def normalized_runtime(self) -> float:
        """Runtime normalized to the untraced run (1.0 = no overhead)."""
        return 1.0 + self.overhead

    def breakdown(self) -> Dict[str, float]:
        """Component fractions of tracing cost (§7.2: PEBS dominates,
        97–99%; PT ≤3%; sync <1%)."""
        total = self.tracing_cycles or 1.0
        return {
            "pebs": self.pebs_cycles / total,
            "pt": self.pt_cycles / total,
            "sync": self.sync_cycles / total,
        }


def estimate_overhead(bundle: TraceBundle) -> OverheadEstimate:
    """Estimate the runtime overhead of one traced run."""
    run = bundle.run
    accounting = bundle.pebs_accounting
    pebs_cycles = accounting.tracing_cycles(run.cpu_cycles)
    n_packets = sum(len(t) for t in bundle.pt_traces.values())
    pt_cycles = (
        n_packets * PT_CYCLES_PER_PACKET
        + bundle.pt_size_bytes * PT_CYCLES_PER_BYTE
    )
    sync_cycles = (
        len(bundle.sync_records) + len(bundle.alloc_records)
    ) * SYNC_TRACE_CYCLES
    return OverheadEstimate(
        pebs_cycles=pebs_cycles,
        pt_cycles=pt_cycles,
        sync_cycles=sync_cycles,
        baseline_wall_cycles=run.tsc,
        cpu_cycles=run.cpu_cycles,
    )


def trace_rate_mb_per_s(bundle: TraceBundle) -> float:
    """PMU trace generation rate in MB per second of execution (Figures
    8–9 measure the PEBS+PT trace; the sync log is separate and small)."""
    seconds = bundle.run.tsc / SIMULATED_CLOCK_HZ
    if seconds == 0:
        return 0.0
    return bundle.pmu_trace_bytes / (1024 * 1024) / seconds
