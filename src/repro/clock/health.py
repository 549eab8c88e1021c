"""The clock health report: what reconciliation saw, fixed, and fears.

One record per analyzed bundle, alongside the degradation report:
per-core fit parameters and residual half-widths, how many records the
monotonicity repair had to move, what fraction of accesses sit in an
uncertainty overlap (their merge key had to be conservatively delayed),
and a declared-vs-observed ledger against the injected
``TraceDefects`` — the same reconciliation discipline the governor
already follows: a trace whose clocks misbehaved beyond what was
declared refuses to call itself clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import ClockModel
from .repair import RepairStats


@dataclass(frozen=True)
class ClockHealthReport:
    """Clock reconciliation summary for one analyzed bundle."""

    model: ClockModel
    repair: RepairStats
    #: Accesses whose merge key was delayed by the uncertainty clamp
    #: (interval overlapped the thread's next sync anchor), vs all
    #: accesses considered.
    overlap_events: int = 0
    total_events: int = 0

    # Declared clock defects (``TraceDefects``): the injection ledger.
    declared_skewed_cores: int = 0
    declared_drifted_cores: int = 0
    declared_steps: int = 0
    declared_regressions: int = 0

    @property
    def active(self) -> bool:
        """Whether reconciliation changed anything at all."""
        return not self.model.is_identity

    @property
    def overlap_fraction(self) -> float:
        if not self.total_events:
            return 0.0
        return self.overlap_events / self.total_events

    @property
    def declared(self) -> bool:
        return bool(self.declared_skewed_cores or self.declared_drifted_cores
                    or self.declared_steps or self.declared_regressions)

    @property
    def observed(self) -> bool:
        return bool(self.model.inversions or self.repair.total_moved
                    or not self.model.is_identity)

    @property
    def reconciles(self) -> Optional[bool]:
        """Declared-vs-observed clock ledger.

        ``None`` when nothing was declared and nothing observed (the
        clock path never engaged); ``False`` when the clocks observably
        misbehaved with no declared fault to explain it — silent clock
        damage; ``True`` otherwise (declared faults account for what
        reconciliation saw, including faults too mild to manifest).
        """
        if not self.declared and not self.observed:
            return None
        return self.declared or not self.observed

    def to_dict(self) -> dict:
        return {
            "active": self.active,
            "model": self.model.to_dict(),
            "repair": self.repair.to_dict(),
            "overlap_events": self.overlap_events,
            "total_events": self.total_events,
            "overlap_fraction": self.overlap_fraction,
            "declared": {
                "skewed_cores": self.declared_skewed_cores,
                "drifted_cores": self.declared_drifted_cores,
                "steps": self.declared_steps,
                "regressions": self.declared_regressions,
            },
            "reconciles": self.reconciles,
        }


def build_clock_health(model: ClockModel, repair: RepairStats, defects,
                       overlap_events: int,
                       total_events: int) -> ClockHealthReport:
    """Assemble the report from the reconciliation pass plus the
    bundle's declared defects."""
    return ClockHealthReport(
        model=model,
        repair=repair,
        overlap_events=overlap_events,
        total_events=total_events,
        declared_skewed_cores=defects.clock_skewed_cores,
        declared_drifted_cores=defects.clock_drifted_cores,
        declared_steps=defects.clock_steps,
        declared_regressions=defects.clock_regressions,
    )
