"""Pluggable data race detection backends.

Every detector conforms to the :class:`DetectorBackend` streaming
protocol (``sync`` / ``access`` / ``finish``) and is selected by name
through the registry: ``fasttrack`` (the paper's choice), ``reference``
(full vector clocks), ``lockset`` (Eraser comparator), ``o1``
(O(1)-samples sampling detector) and ``predict`` (predictive witness
search).
"""

from .base import DetectionFindings, DetectorBackend, HBDetectorBackend
from .events import (
    EVENT_KIND_ACCESS,
    EVENT_KIND_SYNC,
    Access,
    AccessKind,
    EventKey,
    RaceReport,
    SyncOp,
    WitnessSchedule,
    WitnessStep,
    access_sort_key,
    sync_sort_key,
)
from .fasttrack import FastTrack
from .lockset import LocksetDetector, LocksetWarning
from .o1samples import O1SamplesDetector
from .predictive import PredictiveDetector
from .reference import ReferenceDetector
from .registry import (
    DEFAULT_DETECTOR,
    backend_names,
    create_backend,
    register_backend,
    resolve_detector,
    resolve_detectors,
)
from .vectorclock import BOTTOM, Epoch, VectorClock
from .witness import WITNESS_TAIL, WitnessPlanner

__all__ = [
    "Access",
    "AccessKind",
    "BOTTOM",
    "DEFAULT_DETECTOR",
    "DetectionFindings",
    "DetectorBackend",
    "EVENT_KIND_ACCESS",
    "EVENT_KIND_SYNC",
    "Epoch",
    "EventKey",
    "FastTrack",
    "HBDetectorBackend",
    "LocksetDetector",
    "LocksetWarning",
    "O1SamplesDetector",
    "PredictiveDetector",
    "RaceReport",
    "ReferenceDetector",
    "SyncOp",
    "VectorClock",
    "WITNESS_TAIL",
    "WitnessPlanner",
    "WitnessSchedule",
    "WitnessStep",
    "access_sort_key",
    "backend_names",
    "create_backend",
    "register_backend",
    "resolve_detector",
    "resolve_detectors",
    "sync_sort_key",
]
