"""Sampling race detection with O(1) metadata per variable.

After *Dynamic Race Detection With O(1) Samples* (see PAPERS.md): the
full happens-before relation is still built from the (cheap, complete)
sync stream, but per-variable access metadata is capped at a constant —
one write slot plus **one** reservoir-sampled read slot — instead of
FastTrack's adaptive epoch/vector-clock state that can grow to a full
read vector clock per variable.

This is tuned for the sparse access streams ProRace's PEBS sampling
produces: with a handful of sampled accesses per variable, one
uniformly-chosen read sample catches most racy readers, while the
shadow-memory footprint stays constant per variable no matter how many
threads read it.  The trade-off is recall, never precision: every
reported pair is a genuine HB violation on the observed stream (the
checks are a strict subset of FastTrack's), so

``racy_addresses(o1) ⊆ racy_addresses(fasttrack)``

holds by construction and is asserted by the differential tests.
Sampling is deterministic: a seeded generator drives the reservoir, so
the same event stream always yields the same findings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .base import HBDetectorBackend
from .events import Access, AccessKind, RaceReport
from .vectorclock import BOTTOM, Epoch


@dataclass
class _SampleState:
    """Constant-size per-variable shadow state: two slots, one counter."""

    write_epoch: Epoch = BOTTOM
    write_ip: Optional[int] = None
    read_epoch: Epoch = BOTTOM
    read_ip: Optional[int] = None
    #: Reads seen since the last write — the reservoir denominator.
    reads_since_write: int = 0


class O1SamplesDetector(HBDetectorBackend):
    """HB detection over one write slot + one sampled read slot per var."""

    name = "o1"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)
        self._vars: Dict[Tuple[int, int], _SampleState] = {}
        self._read_replacements = 0
        self._reads_sampled_out = 0

    def access(self, access: Access, index: int = -1) -> None:
        self.accesses_processed += 1
        clock = self._clock(access.tid)
        state = self._vars.get(access.var)
        if state is None:
            state = _SampleState()
            self._vars[access.var] = state

        # Check against the write slot (any access races an unordered
        # write) — identical to FastTrack's write-epoch check.
        if not clock.covers_epoch(state.write_epoch):
            self.races.append(
                RaceReport(
                    var=access.var, first_tid=state.write_epoch.tid,
                    first_kind=AccessKind.WRITE, first_ip=state.write_ip,
                    second=access,
                    index=index,
                )
            )

        if access.is_write:
            # Check against the sampled read slot (a subset of
            # FastTrack's read-VC sweep: one reader kept, not all).
            if not clock.covers_epoch(state.read_epoch):
                self.races.append(
                    RaceReport(
                        var=access.var, first_tid=state.read_epoch.tid,
                        first_kind=AccessKind.READ,
                        first_ip=state.read_ip, second=access,
                        index=index,
                    )
                )
            state.write_epoch = Epoch(clock.get(access.tid), access.tid)
            state.write_ip = access.ip
            # The write orders (or just raced with) the sampled read;
            # either way the slot is spent — restart the reservoir.
            state.read_epoch = BOTTOM
            state.read_ip = None
            state.reads_since_write = 0
        else:
            state.reads_since_write += 1
            n = state.reads_since_write
            # Reservoir of size one: the k-th read since the last write
            # replaces the slot with probability 1/k, so the kept read
            # is uniform over all reads in the window.
            if n == 1 or self._rng.random() < 1.0 / n:
                if n > 1:
                    self._read_replacements += 1
                state.read_epoch = Epoch(clock.get(access.tid), access.tid)
                state.read_ip = access.ip
            else:
                self._reads_sampled_out += 1

    def _details(self) -> Dict[str, object]:
        return {
            "sample_seed": self.seed,
            "vars_tracked": len(self._vars),
            "read_slot_replacements": self._read_replacements,
            "reads_sampled_out": self._reads_sampled_out,
            "slots_per_var": 2,
        }
