"""Offline clock reconciliation: per-core clock models from sync logs.

The whole offline stage orders events on one trusted global TSC — the
invariant-TSC assumption ProRace inherits from modern x86.  Production
clocks violate it: per-core offset skew, frequency drift, migration
step discontinuities, outright non-monotonic regressions.  This module
estimates what each core's clock *did* from the evidence the trace
already carries, so corrected timestamps (plus an honest uncertainty
half-width) can be threaded back through the merge.

The estimator leans on one structural fact: synchronization records
carry a global emission sequence number (``seq``) assigned in true
program order, so the sync log is a ladder of cross-thread anchors with
known sign — record *k+1* truly happened no earlier than record *k*,
whatever its core's clock claimed.  Estimation is therefore:

1. **Evidence check.**  If the observed sync timestamps are already
   nondecreasing in ``seq`` order, no clock fault can have reordered
   anything the detector consumes (accesses are pinned between their
   own thread's sync anchors by the timeline tiers) — return the exact
   identity model and leave the bundle untouched, byte for byte.
2. **Reference timeline.**  Otherwise, a running-max repair of the
   observed timestamps in ``seq`` order yields a monotone reference
   that every core's observations can be regressed against.
3. **Per-core affine fit.**  For each core with at least two anchors,
   a least-squares fit ``observed ~ offset + scale * reference``
   recovers that core's constant skew and linear drift; one trimmed
   refit drops step-discontinuity and regression outliers.  The
   *untrimmed* maximum residual becomes the core's uncertainty
   half-width — steps and regressions the affine model cannot express
   are covered by honesty, not hidden by optimism.

The fitted :class:`ClockModel` inverts each core's affine map
(``correct``), reports per-core half-widths, and serializes as the
calibration section of a v4 trace container (`repro.tracing.serialize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Round-robin pinning fallback when a thread never produced a PEBS
#: sample (threads are pinned ``core = tid % num_cores`` by the
#: simulated machine).
DEFAULT_NUM_CORES = 4

#: Padding added to a core's uncertainty half-width whenever its clock
#: needed any correction: residual error is never reported as exactly
#: zero once the core's clock was observed misbehaving.
HALF_WIDTH_PAD = 1.0

#: A fitted scale below this is treated as degenerate (a clock cannot
#: run backwards on average); the fit falls back to offset-only.
MIN_SCALE = 0.1


def core_of_map(bundle) -> Dict[int, int]:
    """``tid -> core`` for every traced thread.

    PEBS samples carry the core id directly; threads that never
    produced a sample fall back to the machine's round-robin pinning
    rule.  Fault injection (`repro.clock.faults`) and reconciliation
    use this same map, so the two sides always agree on which clock a
    record was stamped by.
    """
    mapping: Dict[int, int] = {}
    observed_cores = 0
    for sample in bundle.samples:
        mapping.setdefault(sample.tid, sample.core)
        observed_cores = max(observed_cores, sample.core + 1)
    num_cores = max(observed_cores, DEFAULT_NUM_CORES)
    for record in bundle.sync_records:
        mapping.setdefault(record.tid, record.tid % num_cores)
    for record in bundle.alloc_records:
        mapping.setdefault(record.tid, record.tid % num_cores)
    for tid in bundle.pt_traces:
        mapping.setdefault(tid, tid % num_cores)
    return mapping


@dataclass(frozen=True)
class CoreClockFit:
    """One core's estimated clock behaviour: an affine map from true
    time to observed time, plus the residual uncertainty the map could
    not explain."""

    core: int
    #: Constant offset (skew) in ticks: ``observed = offset + scale*t``.
    offset: float
    #: Frequency scale (1.0 = nominal; drift shows as ``scale != 1``).
    scale: float
    #: Half-width of the corrected timestamp's uncertainty interval, in
    #: true-time ticks.  Covers step discontinuities and regressions
    #: the affine model cannot express.
    half_width: float
    #: Sync-log anchors the fit was estimated from.
    anchors: int

    @property
    def is_identity(self) -> bool:
        return (self.offset == 0.0 and self.scale == 1.0
                and self.half_width == 0.0)

    def correct(self, tsc: int) -> int:
        """Observed tick -> estimated true tick (rounded to keep record
        layouts integral)."""
        return int(round((tsc - self.offset) / self.scale))

    def to_dict(self) -> dict:
        return {
            "core": self.core,
            "offset": self.offset,
            "scale": self.scale,
            "half_width": self.half_width,
            "anchors": self.anchors,
        }


@dataclass(frozen=True)
class ClockModel:
    """A reconciled view of every core's clock.

    ``fits == ()`` is the exact identity model: every timestamp is
    trusted as-is with zero uncertainty, and correction is a no-op that
    returns the original bundle object (the zero-fault byte-identity
    guarantee rests on this).
    """

    fits: Tuple[CoreClockFit, ...] = ()
    #: Monotonicity violations observed before repair — adjacent-pair
    #: sync-log inversions plus per-stream regressions — the evidence
    #: that triggered estimation in the first place.
    inversions: int = 0
    #: Half-width for records on cores with no usable fit.
    default_half_width: float = 0.0

    @classmethod
    def identity(cls) -> "ClockModel":
        return cls()

    @property
    def is_identity(self) -> bool:
        return not self.fits and self.default_half_width == 0.0

    def fit_for(self, core: int) -> CoreClockFit:
        for fit in self.fits:
            if fit.core == core:
                return fit
        return CoreClockFit(core=core, offset=0.0, scale=1.0,
                            half_width=self.default_half_width, anchors=0)

    def correct(self, tsc: int, core: int) -> int:
        if not self.fits:
            return tsc
        return self.fit_for(core).correct(tsc)

    def half_width_of(self, core: int) -> float:
        return self.fit_for(core).half_width

    @property
    def max_half_width(self) -> float:
        widths = [fit.half_width for fit in self.fits]
        widths.append(self.default_half_width)
        return max(widths)

    def to_dict(self) -> dict:
        return {
            "identity": self.is_identity,
            "inversions": self.inversions,
            "default_half_width": self.default_half_width,
            "fits": [fit.to_dict() for fit in self.fits],
        }


def _least_squares(points: List[Tuple[int, int]]) -> Tuple[float, float]:
    """``(offset, scale)`` of ``observed ~ offset + scale * reference``
    by ordinary least squares; degenerate inputs fall back to an
    offset-only fit at nominal frequency."""
    n = len(points)
    mean_ref = sum(ref for ref, _ in points) / n
    mean_obs = sum(obs for _, obs in points) / n
    var = sum((ref - mean_ref) ** 2 for ref, _ in points)
    if var == 0.0:
        return mean_obs - mean_ref, 1.0
    cov = sum((ref - mean_ref) * (obs - mean_obs) for ref, obs in points)
    scale = cov / var
    if scale < MIN_SCALE:
        return mean_obs - mean_ref, 1.0
    offset = mean_obs - scale * mean_ref
    return offset, scale


def _fit_core(core: int, points: List[Tuple[int, int]]) -> CoreClockFit:
    offset, scale = _least_squares(points)
    residuals = [obs - (offset + scale * ref) for ref, obs in points]
    spread = (sum(r * r for r in residuals) / len(residuals)) ** 0.5
    cut = max(3.0 * spread, 1.0)
    kept = [point for point, r in zip(points, residuals) if abs(r) <= cut]
    if len(kept) >= 2 and len(kept) < len(points):
        # Trimmed refit: steps and regressions are outliers to the
        # affine story; drop them so they do not bias offset/drift.
        offset, scale = _least_squares(kept)
        residuals = [obs - (offset + scale * ref) for ref, obs in points]
    # Honesty over optimism: the half-width covers the *untrimmed*
    # worst residual, so disturbances the model cannot express widen
    # the uncertainty interval instead of vanishing.
    half_width = max(abs(r) for r in residuals) / scale + HALF_WIDTH_PAD
    return CoreClockFit(core=core, offset=offset, scale=scale,
                        half_width=half_width, anchors=len(points))


def _stream_inversions(bundle) -> Tuple[int, int]:
    """``(count, worst_depth)`` of monotonicity violations across every
    per-stream ordering the offline stage relies on: samples and alloc
    records per thread, PT packets per trace — each in its own emission
    order.  A healthy trace has none; regressions and migration steps
    show up here even when the (possibly sparse) sync log happens to
    stay sorted."""
    count = 0
    worst = 0

    def scan(tscs):
        nonlocal count, worst
        high = None
        for tsc in tscs:
            if high is not None and tsc < high:
                count += 1
                worst = max(worst, high - tsc)
            else:
                high = tsc

    streams: Dict[int, List[int]] = {}
    for sample in bundle.samples:
        streams.setdefault(sample.tid, []).append(sample.tsc)
    for tscs in streams.values():
        scan(tscs)
    streams = {}
    for record in bundle.alloc_records:
        streams.setdefault(record.tid, []).append(record.tsc)
    for tscs in streams.values():
        scan(tscs)
    for trace in bundle.pt_traces.values():
        scan(trace.tscs)
    return count, worst


def estimate_clock_model(bundle) -> ClockModel:
    """Estimate a :class:`ClockModel` from the evidence the bundle
    already carries.

    Two independent evidence channels trigger estimation: sync-log
    timestamps decreasing in global ``seq`` order (cross-core skew,
    drift, steps) and per-stream monotonicity violations (regressions,
    which a sparse sync log can miss entirely).  With neither, the
    exact identity model comes back: a healthy trace must come out of
    reconciliation byte-identical, not merely approximately corrected.
    """
    records = sorted(bundle.sync_records, key=lambda r: r.seq)
    inversions = sum(
        1 for before, after in zip(records, records[1:])
        if after.tsc < before.tsc
    )
    stream_count, stream_depth = _stream_inversions(bundle)
    if inversions == 0 and stream_count == 0:
        return ClockModel.identity()
    # Regressions the affine fits cannot see (they live off the sync
    # log) still widen every uncertainty interval: the worst observed
    # backward jump bounds how far any single read may have lied.
    regression_width = stream_depth + HALF_WIDTH_PAD if stream_count \
        else 0.0
    if inversions == 0:
        return ClockModel(
            fits=(),
            inversions=stream_count,
            default_half_width=regression_width,
        )

    # Monotone reference timeline: the running max of observed
    # timestamps in seq order.  Biased toward the fastest core's clock,
    # but any common bias cancels — only per-core *relative* behaviour
    # survives into the fits.
    reference: List[int] = []
    high = records[0].tsc
    for record in records:
        high = max(high, record.tsc)
        reference.append(high)

    cores = core_of_map(bundle)
    by_core: Dict[int, List[Tuple[int, int]]] = {}
    for record, ref in zip(records, reference):
        core = cores.get(record.tid, record.tid % DEFAULT_NUM_CORES)
        by_core.setdefault(core, []).append((ref, record.tsc))

    fits = []
    widths = [HALF_WIDTH_PAD, regression_width]
    for core in sorted(by_core):
        points = by_core[core]
        if len(points) < 2:
            continue
        fit = _fit_core(core, points)
        if fit.half_width < regression_width:
            fit = CoreClockFit(
                core=fit.core, offset=fit.offset, scale=fit.scale,
                half_width=regression_width, anchors=fit.anchors,
            )
        fits.append(fit)
        widths.append(fit.half_width)
    return ClockModel(
        fits=tuple(fits),
        inversions=inversions + stream_count,
        # Records on unfitted cores inherit the worst fitted width.
        default_half_width=max(widths),
    )
