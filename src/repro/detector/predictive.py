"""Predictive race detection: HB candidates + reordering witnesses.

Raw happens-before detection reports every pair of unordered
conflicting accesses.  The predictive backend goes one step further,
after the ``verifySC``/``generateWitness`` structure of predictive
SC/race checkers: a cheap FastTrack pre-pass proposes *candidate*
conflicting pairs, and each candidate is then confirmed by searching
for a **reordering witness** — a feasible interleaving of the observed
events ending with the two racy accesses scheduled back-to-back.  The
search itself lives in :mod:`repro.detector.witness` (shared with the
confirmation service, which plans schedules for *any* backend's
reports); this backend buffers the stream, runs the pre-pass, and
attaches the planned tail to each confirmed report.

A candidate with a witness is reported with the schedule attached
(:class:`~repro.detector.events.WitnessSchedule` on the RaceReport), so
the report shows not just "these may race" but the exact interleaving
that makes them collide.  A candidate whose search exhausts its node
budget is dropped and counted as unverified — the backend trades recall
for witness-backed evidence.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from .base import DetectorBackend
from .events import Access, SyncOp
from .fasttrack import FastTrack
from .witness import WITNESS_TAIL, WitnessPlanner


class PredictiveDetector(DetectorBackend):
    """Buffering predictive detector (pre-pass + witness search)."""

    name = "predict"

    def __init__(self, max_nodes: int = 20_000,
                 max_events: int = 500_000) -> None:
        super().__init__()
        #: DFS node budget per candidate pair.
        self.max_nodes = max_nodes
        #: Event-buffer cap: streams beyond it are analyzed prefix-only.
        self.max_events = max_events
        self._events: List[object] = []
        self._dropped = 0
        self._candidates = 0
        self._witnessed = 0
        self._unverified = 0
        self._nodes_total = 0

    # -- streaming protocol: buffer everything -------------------------

    def sync(self, op: SyncOp) -> None:
        self.sync_processed += 1
        if len(self._events) < self.max_events:
            self._events.append(op)
        else:
            self._dropped += 1

    def access(self, access: Access, index: int = -1) -> None:
        self.accesses_processed += 1
        if len(self._events) < self.max_events:
            self._events.append(access)
        else:
            self._dropped += 1

    # -- finish: pre-pass, then per-candidate witness search -----------

    def finish(self):
        self.races = []
        # The buffer is the stream's prefix, so a buffer position is the
        # stream position the pre-pass reports and the planner looks up.
        pre = FastTrack()
        for position, event in enumerate(self._events):
            if isinstance(event, SyncOp):
                pre.sync(event)
            else:
                pre.access(event, position)

        planner = WitnessPlanner(self._events, max_nodes=self.max_nodes,
                                 tail=WITNESS_TAIL)
        for candidate in pre.distinct_races():
            self._candidates += 1
            witness = planner.schedule_for(candidate)
            if witness is None:
                self._unverified += 1
            else:
                self._witnessed += 1
                self.races.append(replace(candidate, witness=witness))
        self._nodes_total = planner.nodes_total
        return super().finish()

    def _details(self) -> Dict[str, object]:
        return {
            "candidates": self._candidates,
            "witnessed": self._witnessed,
            "unverified": self._unverified,
            "search_nodes": self._nodes_total,
            "node_budget": self.max_nodes,
            "events_dropped": self._dropped,
        }
