"""Offline memory-access reconstruction (the paper's §5)."""

from .engine import ReplayEngine, ReplayResult, ReplayStats, ThreadReplay
from .program_map import Known, ProgramMap, Taint, merge_taint
from .window import (
    PROV_BACKWARD,
    PROV_BASICBLOCK,
    PROV_FORWARD,
    PROV_SAMPLED,
    RecoveredAccess,
    WindowReplayer,
    WindowStats,
)

__all__ = [
    "Known",
    "PROV_BACKWARD",
    "PROV_BASICBLOCK",
    "PROV_FORWARD",
    "PROV_SAMPLED",
    "ProgramMap",
    "RecoveredAccess",
    "ReplayEngine",
    "ReplayResult",
    "ReplayStats",
    "Taint",
    "ThreadReplay",
    "WindowReplayer",
    "WindowStats",
    "merge_taint",
]
