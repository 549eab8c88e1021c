"""Clock reconciliation: adversarial time for the ProRace pipeline.

Everything downstream of tracing orders events on one trusted global
TSC.  This package is what happens when that trust is withdrawn:

* `repro.clock.faults` — first-class clock faults (per-core skew,
  drift, step discontinuities, non-monotonic regressions) injected
  purely at the bundle level;
* `repro.clock.model` — the offline :class:`ClockModel`: per-core
  affine fits estimated from sync-log anchors, with honest residual
  half-widths;
* `repro.clock.repair` — clock correction plus monotonicity repair
  with provenance;
* `repro.clock.health` — the :class:`ClockHealthReport` joined to
  text/JSON race reports.

The ordering contract the rest of the pipeline builds on: corrected
timestamps carry an uncertainty half-width, and any access whose
uncertainty interval reaches the thread's next sync anchor is merged
*at* that anchor — cross-thread pairs inside each other's uncertainty
are thereby ordered only by sync-derived happens-before.  Skew can
cost detection probability; it can never manufacture a false ordering.
"""

from .faults import (
    ClockFaultStats,
    CoreClockFault,
    inject_clock_faults,
    plan_core_faults,
)
from .health import ClockHealthReport, build_clock_health
from .model import (
    ClockModel,
    CoreClockFit,
    core_of_map,
    estimate_clock_model,
)
from .repair import (
    REPAIR_STREAMS,
    RepairStats,
    apply_clock_correction,
    repair_monotonic,
    repair_streams,
)

__all__ = [
    "ClockFaultStats",
    "ClockHealthReport",
    "ClockModel",
    "CoreClockFault",
    "CoreClockFit",
    "REPAIR_STREAMS",
    "RepairStats",
    "apply_clock_correction",
    "build_clock_health",
    "core_of_map",
    "estimate_clock_model",
    "inject_clock_faults",
    "plan_core_faults",
    "repair_monotonic",
    "repair_streams",
]
