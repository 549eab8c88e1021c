"""Clock correction and monotonicity repair, applied to whole bundles.

Correction is the inverse of each core's fitted affine map; repair is
a running-max clamp restoring the monotonicity each consumer relies
on.  The two invariants repaired here are exactly the ones that keep
skew from fabricating orderings:

* the **sync stream** must be nondecreasing in global ``seq`` order —
  the merge then replays synchronization in true emission order, so no
  release/acquire pair can invert and silently drop a happens-before
  edge;
* every **per-thread stream** (samples, allocs, PT packets) must be
  nondecreasing in its own emission order, so path location and
  timeline anchoring see the per-stream monotonicity they assume.

Repair passes touch *disjoint* streams, which is what makes them
order-insensitive and idempotent (pinned by the Hypothesis property in
``tests/test_clock_property.py``).  When the model is the identity and
every stream is already monotone, :func:`apply_clock_correction`
returns the original bundle object unchanged — the byte-identity
guarantee for fault-free traces.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .model import ClockModel, core_of_map, estimate_clock_model

#: The canonical repair-pass order.  Any permutation yields the same
#: bundle — the streams are disjoint — but one order is named so the
#: provenance in :class:`RepairStats` reads deterministically.
REPAIR_STREAMS = ("sync", "samples", "allocs", "packets")


@dataclass
class RepairStats:
    """Provenance of one repair pass: how many records each stream had
    to move to restore monotonicity, and by how much at worst."""

    sync_moved: int = 0
    sample_moved: int = 0
    alloc_moved: int = 0
    packet_moved: int = 0
    max_displacement: int = 0

    @property
    def total_moved(self) -> int:
        return (self.sync_moved + self.sample_moved
                + self.alloc_moved + self.packet_moved)

    def to_dict(self) -> dict:
        return {
            "sync_moved": self.sync_moved,
            "sample_moved": self.sample_moved,
            "alloc_moved": self.alloc_moved,
            "packet_moved": self.packet_moved,
            "max_displacement": self.max_displacement,
        }


def repair_monotonic(values: Sequence[int]) -> Tuple[List[int], int, int]:
    """Running-max clamp: the least nondecreasing sequence that never
    runs *ahead* of the input.  Returns ``(repaired, moved,
    max_displacement)``.  Idempotent by construction."""
    repaired: List[int] = []
    moved = 0
    worst = 0
    high: Optional[int] = None
    for value in values:
        if high is None or value >= high:
            high = value
        else:
            moved += 1
            worst = max(worst, high - value)
        repaired.append(high)
    return repaired, moved, worst


def _repair_sync(records, stats: RepairStats):
    """Repair the seq-ordered sync stream: globally nondecreasing (the
    merge replays synchronization in emission order) and *strictly*
    increasing per thread (so every access has a non-empty merge-key
    window between its own surrounding sync records — see
    :func:`~repro.detector.events.uncertain_merge_tsc`)."""
    repaired = []
    moved = 0
    worst = 0
    high: Optional[int] = None
    last_of: Dict[int, int] = {}
    for record in records:
        floor = high
        last = last_of.get(record.tid)
        if last is not None:
            floor = last + 1 if floor is None else max(floor, last + 1)
        value = record.tsc
        if floor is not None and value < floor:
            value = floor
            moved += 1
            worst = max(worst, floor - record.tsc)
        high = value if high is None or value > high else high
        last_of[record.tid] = value
        repaired.append(value)
    if not moved:
        return records, False
    stats.sync_moved += moved
    stats.max_displacement = max(stats.max_displacement, worst)
    return [replace(record, tsc=value)
            for record, value in zip(records, repaired)], True


def _repair_stream(records, stats: RepairStats, counter: str):
    values, moved, worst = repair_monotonic([r.tsc for r in records])
    if not moved:
        return records, False
    setattr(stats, counter, getattr(stats, counter) + moved)
    stats.max_displacement = max(stats.max_displacement, worst)
    return [replace(record, tsc=value)
            for record, value in zip(records, values)], True


def repair_streams(bundle, order: Sequence[str] = REPAIR_STREAMS,
                   stats: Optional[RepairStats] = None):
    """Monotonicity-repair every stream of *bundle*, in *order*.

    The streams are disjoint, so any permutation of *order* produces a
    bit-identical bundle; a bundle already repaired comes back as the
    same object.  Returns ``(bundle, stats)``.
    """
    stats = stats if stats is not None else RepairStats()
    unknown = set(order) - set(REPAIR_STREAMS)
    if unknown or len(set(order)) != len(REPAIR_STREAMS):
        raise ValueError(f"repair order must permute {REPAIR_STREAMS}, "
                         f"got {tuple(order)}")
    fields: Dict[str, object] = {}
    for stream in order:
        if stream == "sync":
            # Seq order is the machine's global emission order — the
            # one cross-thread ordering no clock fault can forge.
            records = sorted(bundle.sync_records, key=lambda r: r.seq)
            repaired, changed = _repair_sync(records, stats)
            if changed:
                fields["sync_records"] = repaired
        elif stream == "samples":
            by_tid: Dict[int, List] = {}
            for sample in bundle.samples:
                by_tid.setdefault(sample.tid, []).append(sample)
            changed_any = False
            for tid in by_tid:
                by_tid[tid], changed = _repair_stream(
                    by_tid[tid], stats, "sample_moved")
                changed_any = changed_any or changed
            if changed_any:
                fields["samples"] = [
                    sample for tid in sorted(by_tid)
                    for sample in by_tid[tid]
                ]
        elif stream == "allocs":
            by_tid = {}
            for record in bundle.alloc_records:
                by_tid.setdefault(record.tid, []).append(record)
            changed_any = False
            for tid in by_tid:
                by_tid[tid], changed = _repair_stream(
                    by_tid[tid], stats, "alloc_moved")
                changed_any = changed_any or changed
            if changed_any:
                fields["alloc_records"] = [
                    record for tid in sorted(by_tid)
                    for record in by_tid[tid]
                ]
        elif stream == "packets":
            traces = {}
            changed_any = False
            for tid, trace in bundle.pt_traces.items():
                values, moved, worst = repair_monotonic(trace.tscs)
                if moved:
                    stats.packet_moved += moved
                    stats.max_displacement = max(stats.max_displacement,
                                                 worst)
                    # OVF gap ends keep their timestamps, as the
                    # samples' and allocs' do in their own streams.
                    traces[tid] = replace(trace, tscs=array("q", values))
                    changed_any = True
                else:
                    traces[tid] = trace
            if changed_any:
                fields["pt_traces"] = traces
    if not fields:
        return bundle, stats
    return replace(bundle, _sample_index=None, _sample_index_key=None,
                   **fields), stats


def apply_clock_correction(bundle, model: Optional[ClockModel] = None):
    """Correct every timestamp in *bundle* through *model* (estimated
    from the sync log when not given, reused from the v4 calibration
    section when the container carried one), then monotonicity-repair
    the corrected streams.

    Returns ``(corrected_bundle, model, stats)``.  With the identity
    model the original bundle object comes back untouched — a pristine
    trace is bit-identical through reconciliation.
    """
    if model is None:
        model = bundle.clock or estimate_clock_model(bundle)
    if model.is_identity:
        return bundle, model, RepairStats()
    cores = core_of_map(bundle)

    def fix_for(tid: int):
        fit = model.fit_for(cores.get(tid, tid % 4))
        return fit.correct

    samples = [
        replace(sample, tsc=model.correct(sample.tsc, sample.core))
        for sample in bundle.samples
    ]
    sync_records = [
        replace(record, tsc=fix_for(record.tid)(record.tsc))
        for record in bundle.sync_records
    ]
    alloc_records = [
        replace(record, tsc=fix_for(record.tid)(record.tsc))
        for record in bundle.alloc_records
    ]
    pt_traces = {tid: trace.retimed(fix_for(tid))
                 for tid, trace in bundle.pt_traces.items()}
    corrected = replace(
        bundle, samples=samples, sync_records=sync_records,
        alloc_records=alloc_records, pt_traces=pt_traces, clock=model,
        _sample_index=None, _sample_index_key=None,
    )
    repaired, stats = repair_streams(corrected)
    return repaired, model, stats
