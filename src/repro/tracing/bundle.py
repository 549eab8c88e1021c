"""The online phase, end to end: run a program under PMU tracing.

:func:`trace_run` wires a :class:`~repro.machine.Machine` with the PEBS
engine, PT packetizer, and sync tracer — the complete online stage of
Figure 1 — and returns a :class:`TraceBundle` holding everything the
offline stage consumes plus the accounting the cost model needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.program import Program
from ..machine.machine import Machine, RunResult
from ..pmu.drivers import DriverAccounting, DriverModel, PRORACE_DRIVER
from ..pmu.governor import GovernorConfig, GovernorReport, PeriodEpoch, TracingGovernor
from ..pmu.pebs import PEBSConfig, PEBSEngine
from ..pmu.pt import PTConfig, PTPacketizer, PTThreadTrace
from ..pmu.records import AllocRecord, PEBSSample, SyncRecord
from .tracers import GroundTruthRecorder, SyncTracer


@dataclass
class TraceDefects:
    """Known damage to a trace bundle, as declared by whoever degraded it.

    Real PEBS/PT tracing loses data (buffer overflows, OVF packets, a
    crashing application truncating its logs, disk corruption).  When a
    bundle was produced by fault injection (:mod:`repro.faults`) or by
    salvage loading (``read_trace(..., allow_partial=True)``), this
    record travels with it so the offline stage can degrade its answers
    *conservatively* instead of computing garbage — and so the
    :class:`~repro.analysis.pipeline.DegradationReport` can reconcile
    what the consumers observed against what was actually lost.
    """

    #: PEBS samples discarded by overflow-burst drops.
    samples_dropped: int = 0
    #: Whole-buffer bursts those samples were dropped in.
    drop_bursts: int = 0
    #: OVF gap markers injected across all PT streams.
    pt_gaps: int = 0
    #: PT packets the gaps swallowed.
    pt_packets_lost: int = 0
    #: Sync records lost to log truncation.
    sync_records_lost: int = 0
    #: Alloc records lost to log truncation.
    alloc_records_lost: int = 0
    #: Last trustworthy timestamp of the sync/alloc logs.  ``None`` means
    #: the logs are complete; ``-1`` means nothing after the trace start
    #: can be trusted (e.g. the sync section was unrecoverable).  The
    #: pipeline suppresses accesses after this point: happens-before
    #: edges there may be missing, and lost edges must degrade detection
    #: power, never fabricate races.
    log_truncated_at_tsc: Optional[int] = None
    #: Samples whose timestamps were perturbed (clock skew / jitter).
    tsc_perturbed: int = 0
    #: Container sections dropped by salvage loading.
    corrupted_sections: Tuple[str, ...] = ()
    #: Cores whose clock was injected with a constant offset
    #: (:mod:`repro.clock.faults`).
    clock_skewed_cores: int = 0
    #: Cores whose clock was injected with linear frequency drift.
    clock_drifted_cores: int = 0
    #: Migration-style step discontinuities injected across all cores.
    clock_steps: int = 0
    #: Individual non-monotonic timestamp regressions injected.
    clock_regressions: int = 0

    @property
    def clock_disturbed(self) -> bool:
        """Whether any first-class clock fault was declared."""
        return bool(
            self.clock_skewed_cores or self.clock_drifted_cores
            or self.clock_steps or self.clock_regressions
        )

    @property
    def degraded(self) -> bool:
        return bool(
            self.samples_dropped or self.pt_gaps
            or self.sync_records_lost or self.alloc_records_lost
            or self.log_truncated_at_tsc is not None
            or self.tsc_perturbed or self.corrupted_sections
            or self.clock_disturbed
        )


@dataclass
class TraceBundle:
    """Everything the online stage produced for one run."""

    program: Program
    run: RunResult
    samples: List[PEBSSample]
    pt_traces: Dict[int, PTThreadTrace]
    pt_config: PTConfig
    sync_records: List[SyncRecord]
    alloc_records: List[AllocRecord]
    pebs_accounting: DriverAccounting
    pt_size_bytes: int
    sync_size_bytes: int
    #: Present only when requested — a test/metrics oracle, not a real
    #: trace (see tracers.GroundTruthRecorder).
    ground_truth: Optional[GroundTruthRecorder] = None
    #: Known damage (fault injection, salvage loading); None = pristine.
    defects: Optional[TraceDefects] = None
    #: Period-epoch markers from a governed run: the piecewise-constant
    #: effective PEBS period over time.  Empty for ungoverned runs.  The
    #: offline stage anchors timelines per epoch and computes detection
    #: probability against the variable period.
    period_epochs: List[PeriodEpoch] = field(default_factory=list)
    #: Full governor action record (None for ungoverned runs).
    governor: Optional[GovernorReport] = None
    #: Clock calibration (:class:`~repro.clock.model.ClockModel`) — set
    #: by reconciliation or loaded from a v4 container's calibration
    #: section.  ``None`` means the global-TSC trust assumption holds.
    #: Typed loosely so the tracing layer never imports ``repro.clock``.
    clock: Optional[object] = None
    #: Lazy per-tid sample index behind :meth:`samples_of_thread` (decode
    #: and alignment call it once per thread; a linear rescan per call
    #: made that O(threads × samples)).
    _sample_index: Optional[Dict[int, List[PEBSSample]]] = field(
        default=None, repr=False, compare=False
    )
    _sample_index_key: Optional[Tuple[int, int]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def pebs_size_bytes(self) -> int:
        return self.pebs_accounting.trace_bytes

    @property
    def pmu_trace_bytes(self) -> int:
        """PEBS + PT bytes — the "trace" whose size the paper's Figures
        8–9 measure.  The synchronization log is a separate, small
        artefact in the real system."""
        return self.pebs_size_bytes + self.pt_size_bytes

    @property
    def total_trace_bytes(self) -> int:
        return self.pebs_size_bytes + self.pt_size_bytes + self.sync_size_bytes

    def samples_of_thread(self, tid: int) -> List[PEBSSample]:
        """This thread's samples, in emission order.

        Built once from a cached per-tid index and rebuilt only if the
        ``samples`` list object is swapped out (fault injection replaces
        it wholesale).  Callers must treat the result as read-only.
        """
        key = (id(self.samples), len(self.samples))
        if self._sample_index is None or self._sample_index_key != key:
            index: Dict[int, List[PEBSSample]] = {}
            for sample in self.samples:
                index.setdefault(sample.tid, []).append(sample)
            self._sample_index = index
            self._sample_index_key = key
        return self._sample_index.get(tid, [])


def trace_run(
    program: Program,
    period: int,
    driver: DriverModel = PRORACE_DRIVER,
    seed: int = 0,
    num_cores: int = 4,
    pt_config: Optional[PTConfig] = None,
    pebs_config: Optional[PEBSConfig] = None,
    record_ground_truth: bool = False,
    machine: Optional[Machine] = None,
    entry: str = "main",
    governor: Optional[GovernorConfig] = None,
    load_bursts=None,
) -> TraceBundle:
    """Run *program* under full PMU tracing and return the trace bundle.

    Args:
        program: the binary to trace.
        period: PEBS sampling period (ignored when *pebs_config* given).
        driver: PEBS driver model (vanilla Linux vs ProRace).
        seed: drives both the scheduler and PEBS period randomization, so
            one seed fully determines a run.
        num_cores: simulated core count.
        pt_config: PT programming; default traces the whole program.
        pebs_config: full PEBS programming override.
        record_ground_truth: also capture the complete access trace
            (oracle for tests/metrics; real systems cannot afford this).
        machine: pre-built machine (for custom scheduler parameters);
            must not have been run yet.
        entry: program entry label.
        governor: attach a closed-loop tracing governor
            (:class:`~repro.pmu.governor.TracingGovernor`) with this
            configuration; the bundle then carries period epochs and the
            governor report.  ``None`` (the default) traces open-loop,
            byte-identical to an ungoverned build.
        load_bursts: seeded online load chaos
            (:class:`~repro.faults.LoadBurstPlan`): burst-weighted event
            arrival plus optional tracer stalls.  Never perturbs the
            application schedule.
    """
    if machine is None:
        machine = Machine(program, num_cores=num_cores, seed=seed)
    pebs = PEBSEngine(
        pebs_config or PEBSConfig(period=period), driver=driver, seed=seed + 1
    )
    pt = PTPacketizer(pt_config or PTConfig())
    sync = SyncTracer()
    if load_bursts is not None:
        pebs.load_bursts = load_bursts
        pebs.stall_at = load_bursts.stall_pebs_at
        sync.stall_at = load_bursts.stall_sync_at
    machine.attach(pebs)
    machine.attach(pt)
    machine.attach(sync)
    ground_truth = None
    if record_ground_truth:
        ground_truth = GroundTruthRecorder()
        machine.attach(ground_truth)
    gov = None
    gov_defects = None
    if governor is not None:
        # Constructed here (not in pmu.governor) so the governor module
        # never imports the tracing layer; attached last so its
        # callbacks observe the state the tracers just updated.
        gov_defects = TraceDefects()
        gov = TracingGovernor(governor, engine=pebs, pt=pt, sync=sync,
                              defects=gov_defects)
        pebs.governor = gov
        machine.attach(gov)
    run = machine.run(entry=entry)
    bundle = TraceBundle(
        program=program,
        run=run,
        samples=pebs.samples,
        pt_traces=pt.traces,
        pt_config=pt.config,
        sync_records=sync.sync_records,
        alloc_records=sync.alloc_records,
        pebs_accounting=pebs.accounting,
        pt_size_bytes=pt.total_size_bytes(),
        sync_size_bytes=sync.size_bytes,
        ground_truth=ground_truth,
    )
    if gov is not None:
        bundle.period_epochs = list(gov.report.epochs)
        bundle.governor = gov.report
        if gov_defects is not None and gov_defects.degraded:
            bundle.defects = gov_defects
    return bundle
