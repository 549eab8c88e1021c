"""ProRace reproduction: PMU-sampling-based data race detection with
offline memory-access reconstruction (ASPLOS 2017).

The package mirrors the paper's two-phase architecture (Figure 1):

* **Online** — :func:`repro.tracing.trace_run` executes a program on the
  simulated machine (:mod:`repro.machine`) under simulated PMU hardware
  (:mod:`repro.pmu`): PEBS memory-access sampling with either the vanilla
  Linux driver model or ProRace's driver, Intel-PT-style control-flow
  tracing, and LD_PRELOAD-style synchronization logging.
* **Offline** — :class:`repro.analysis.OfflinePipeline` decodes the PT
  trace (:mod:`repro.ptdecode`), reconstructs unsampled memory accesses
  by forward/backward replay (:mod:`repro.replay`), and runs FastTrack
  happens-before detection (:mod:`repro.detector`).

Quickstart::

    from repro import assemble, trace_run, OfflinePipeline

    program = assemble(RACY_ASM_SOURCE)
    bundle = trace_run(program, period=1_000, seed=1)
    result = OfflinePipeline(program).analyze(bundle)
    for race in result.races:
        print(race.describe())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .analysis import (
    DetectionResult,
    OfflinePipeline,
    estimate_overhead,
    measure_detection_probability,
    trace_rate_mb_per_s,
)
from .detector import FastTrack, RaceReport
from .errors import (
    CheckpointError,
    DeadlineExceeded,
    DecodeError,
    QuarantinedWork,
    ReplayError,
    ReproError,
    TraceError,
    UsageError,
    WorkerCrash,
    exit_code_for,
)
from .isa import Imm, Mem, Op, Program, ProgramBuilder, Reg, assemble
from .machine import Machine, MachineError, RunResult
from .pmu import (
    GovernorConfig,
    GovernorReport,
    PEBSConfig,
    PRORACE_DRIVER,
    PTConfig,
    PeriodEpoch,
    VANILLA_DRIVER,
)
from .replay import ReplayEngine
from .supervise import RunLedger, SupervisorConfig, supervised_map
from .tracing import TraceBundle, trace_run
from .workloads import (
    ALL_WORKLOADS,
    APP_WORKLOADS,
    PARSEC_WORKLOADS,
    RACE_BUGS,
    WorkloadScale,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "APP_WORKLOADS",
    "CheckpointError",
    "DeadlineExceeded",
    "DecodeError",
    "DetectionResult",
    "FastTrack",
    "GovernorConfig",
    "GovernorReport",
    "Imm",
    "Machine",
    "MachineError",
    "Mem",
    "OfflinePipeline",
    "Op",
    "PARSEC_WORKLOADS",
    "PEBSConfig",
    "PRORACE_DRIVER",
    "PTConfig",
    "PeriodEpoch",
    "Program",
    "ProgramBuilder",
    "QuarantinedWork",
    "RACE_BUGS",
    "RaceReport",
    "Reg",
    "ReplayEngine",
    "ReplayError",
    "ReproError",
    "RunLedger",
    "RunResult",
    "SupervisorConfig",
    "TraceBundle",
    "TraceError",
    "UsageError",
    "VANILLA_DRIVER",
    "WorkerCrash",
    "WorkloadScale",
    "assemble",
    "estimate_overhead",
    "exit_code_for",
    "measure_detection_probability",
    "supervised_map",
    "trace_rate_mb_per_s",
    "trace_run",
    "__version__",
]
