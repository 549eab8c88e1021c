"""Offline pipeline, cost model, and experiment metrics."""

from ..detector.events import access_sort_key, sync_sort_key
from .context import AnalysisContext, ContextStats
from .costs import (
    OverheadEstimate,
    PT_CYCLES_PER_BYTE,
    PT_CYCLES_PER_PACKET,
    SIMULATED_CLOCK_HZ,
    SYNC_TRACE_CYCLES,
    estimate_overhead,
    trace_rate_mb_per_s,
)
from .generations import AllocationIndex
from .metrics import (
    DetectionProbability,
    DetectionTrial,
    OfflineOverhead,
    arithmetic_mean,
    geometric_mean,
    measure_detection_probability,
    measure_offline_overhead,
    wilson_interval,
)
from .pipeline import (
    DegradationReport,
    DetectionResult,
    OfflinePipeline,
    OfflineTimings,
)
from .report import (
    FleetSummary,
    backend_to_dict,
    render_backend_section,
    render_degradation,
    render_race,
    render_confirmation,
    render_report,
    to_json,
)
from .shootout import (
    BackendScore,
    ShootoutResult,
    run_shootout,
)
from .sweeps import (
    DetectionSweepResult,
    SweepResult,
    detection_sweep,
    overhead_sweep,
    tracesize_sweep,
)
from .timeline import ThreadTimeline, build_timeline

__all__ = [
    "AllocationIndex",
    "AnalysisContext",
    "BackendScore",
    "ContextStats",
    "ShootoutResult",
    "access_sort_key",
    "backend_to_dict",
    "render_backend_section",
    "render_confirmation",
    "run_shootout",
    "sync_sort_key",
    "DegradationReport",
    "DetectionProbability",
    "DetectionResult",
    "DetectionSweepResult",
    "FleetSummary",
    "SweepResult",
    "detection_sweep",
    "overhead_sweep",
    "tracesize_sweep",
    "DetectionTrial",
    "OfflineOverhead",
    "OfflinePipeline",
    "OfflineTimings",
    "OverheadEstimate",
    "PT_CYCLES_PER_BYTE",
    "PT_CYCLES_PER_PACKET",
    "SIMULATED_CLOCK_HZ",
    "SYNC_TRACE_CYCLES",
    "ThreadTimeline",
    "arithmetic_mean",
    "build_timeline",
    "estimate_overhead",
    "geometric_mean",
    "measure_detection_probability",
    "render_degradation",
    "render_race",
    "render_report",
    "to_json",
    "measure_offline_overhead",
    "trace_rate_mb_per_s",
    "wilson_interval",
]
