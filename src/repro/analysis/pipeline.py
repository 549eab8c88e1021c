"""The offline analysis pipeline: decode → reconstruct → detect.

Implements the right-hand side of Figure 1: PT decode and synthesis,
memory reconstruction (with the race-triggered regeneration protocol of
§5.1), and FastTrack happens-before detection over the extended memory
trace, with per-phase wall-clock timing for the Figure 12 breakdown.

The heavy lifting lives in :class:`~repro.analysis.context.AnalysisContext`:
round-invariant artifacts (decoded paths, located records, timelines,
the sorted sync stream) are computed once per bundle, regeneration
rounds re-replay only the threads whose program maps touched poisoned
addresses, and the detectors consume the splice merge of columnar
access batches (:meth:`~repro.analysis.context.AnalysisContext.merged_batches`)
instead of a globally re-sorted event list.  ``analyze()`` and
``events_for()`` read that one merge — ``events_for()`` through its
``(key, event)`` view — and ``events_for()`` on the bundle
``analyze()`` just finished reuses that very context instead of
building a second one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..detector.base import DetectionFindings, DetectorBackend
from ..detector.batch import BATCH_SYNC
from ..detector.events import RaceReport
from ..detector.fasttrack import FastTrack
from ..detector.registry import DEFAULT_DETECTOR, create_backend, \
    resolve_detectors
from ..detector.sharded import run_sharded_fasttrack
from ..isa.program import Program
from ..replay.engine import ReplayResult
from ..tracing.bundle import TraceBundle, TraceDefects
from .context import AnalysisContext


#: Cap on the §5.1 invalidate-and-regenerate rounds when races land on
#: emulated memory locations.
MAX_REGENERATIONS = 3


@dataclass
class OfflineTimings:
    """Measured wall-clock seconds per offline phase (Figure 12)."""

    decode_seconds: float = 0.0
    reconstruction_seconds: float = 0.0
    detection_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.decode_seconds
            + self.reconstruction_seconds
            + self.detection_seconds
        )

    def breakdown(self) -> Dict[str, float]:
        """Phase fractions of the total (the paper reports 33.7% decode,
        64.7% reconstruction, 1.6% detection)."""
        total = self.total_seconds or 1.0
        return {
            "pt_decoding": self.decode_seconds / total,
            "trace_reconstruction": self.reconstruction_seconds / total,
            "race_detection": self.detection_seconds / total,
        }


@dataclass
class DegradationReport:
    """How lossy the inputs were and what the analysis did about it.

    The *declared* fields echo the bundle's
    :class:`~repro.tracing.bundle.TraceDefects` (what fault injection or
    salvage loading says was lost); the *observed* fields are measured
    by the consumers (what decode/replay/detection actually did).  Under
    a pure PT-gap fault plan, ``gaps_crossed`` must reconcile exactly
    with the injected ``pt_gaps`` — that equality is the subsystem's
    end-to-end accounting check, and it is tested.
    """

    # Declared losses (from TraceDefects).
    samples_dropped: int = 0
    drop_bursts: int = 0
    pt_gaps: int = 0
    pt_packets_lost: int = 0
    sync_records_lost: int = 0
    alloc_records_lost: int = 0
    tsc_perturbed: int = 0
    log_truncated_at_tsc: Optional[int] = None
    corrupted_sections: Tuple[str, ...] = ()
    # Declared clock faults (from TraceDefects; see repro.clock.faults).
    clock_skewed_cores: int = 0
    clock_drifted_cores: int = 0
    clock_steps: int = 0
    clock_regressions: int = 0
    # Declared governor actions (from the bundle's GovernorReport; all
    # zero/False for ungoverned runs).  These are *intentional* losses —
    # backpressure the governor chose and accounted — and they must
    # reconcile against the observed fields below: every shed PT span
    # surfaces as a decoder gap, every hard-dropped buffer as declared
    # sample drops.
    governor_active: bool = False
    governor_epochs: int = 0
    governor_tier_transitions: int = 0
    governor_pt_sheds: int = 0
    governor_pt_bytes_shed: int = 0
    governor_hard_drop_bursts: int = 0
    governor_hard_dropped_samples: int = 0
    governor_watchdog_trips: int = 0
    governor_sync_stalls: int = 0
    # Observed degradation (measured by the consumers).
    gaps_crossed: int = 0
    windows_aborted: int = 0
    samples_unaligned: int = 0
    suppressed_accesses: int = 0
    threads_skipped: Tuple[int, ...] = ()
    incomplete_paths: int = 0
    #: Candidate timeline anchors rejected for contradicting
    #: higher-tier evidence — the observable footprint of perturbed
    #: timestamps (TSC jitter, clock faults) on the consumers.
    timeline_rejections: int = 0
    #: Figure 11 recovery ratio of this (possibly degraded) analysis —
    #: compare against a pristine run to quantify reconstruction impact.
    recovery_ratio: float = 0.0

    @property
    def degraded(self) -> bool:
        return bool(
            self.samples_dropped or self.pt_packets_lost
            or self.sync_records_lost or self.alloc_records_lost
            or self.tsc_perturbed or self.corrupted_sections
            or self.log_truncated_at_tsc is not None
            or self.clock_skewed_cores or self.clock_drifted_cores
            or self.clock_steps or self.clock_regressions
            or self.gaps_crossed or self.windows_aborted
            or self.samples_unaligned or self.suppressed_accesses
            or self.threads_skipped or self.incomplete_paths
            or self.timeline_rejections
        )

    @property
    def governor_reconciles(self) -> Optional[bool]:
        """Whether every loss the governor declared was observed, and
        nothing beyond it.  ``None`` for ungoverned runs.

        Under a governed run with no *other* fault source, the governor
        is the sole author of degradation, so the accounting must close
        exactly: each shed PT span surfaces as exactly one decoder gap,
        and declared sample drops are exactly the hard-drop total.
        Runs that mix the governor with an external fault plan legally
        observe *more* loss than the governor declared — this property
        then checks the governor's share is covered (declared ≤
        observed), which is the strongest claim available.
        """
        if not self.governor_active:
            return None
        return (self.governor_pt_sheds <= self.gaps_crossed
                and self.governor_hard_dropped_samples
                <= self.samples_dropped)

    @property
    def clock_declared(self) -> bool:
        """Whether any timestamp fault was declared (bounded jitter or
        first-class clock faults)."""
        return bool(
            self.tsc_perturbed or self.clock_skewed_cores
            or self.clock_drifted_cores or self.clock_steps
            or self.clock_regressions
        )

    @property
    def tsc_reconciles(self) -> Optional[bool]:
        """Declared-vs-observed ledger for timestamp damage, mirroring
        :attr:`governor_reconciles` for the clock axis.

        ``None`` when no timestamp fault was declared and the consumers
        observed no anchor rejections (the axis never engaged);
        ``False`` when timelines rejected contradictory anchors with no
        declared jitter or clock fault to explain them — silently
        damaged timestamps; ``True`` otherwise (declared faults cover
        what was observed, including faults too mild to manifest as
        rejections).
        """
        observed = bool(self.timeline_rejections)
        if not self.clock_declared and not observed:
            return None
        return self.clock_declared or not observed


@dataclass
class DetectionResult:
    """Outcome of one offline analysis.

    ``races``/``racy_addresses`` are the **primary** backend's findings
    (the first ``--detector``; FastTrack by default) so every historical
    consumer keeps working; ``findings`` carries the full per-backend
    :class:`~repro.detector.base.DetectionFindings` of every backend
    that rode the same event-stream pass.
    """

    races: List[RaceReport]
    racy_addresses: FrozenSet[int]
    replay: ReplayResult
    regeneration_rounds: int
    timings: OfflineTimings
    events_processed: int
    degradation: DegradationReport = field(default_factory=DegradationReport)
    #: The backends that ran, in request order (first = primary).
    detectors: Tuple[str, ...] = (DEFAULT_DETECTOR,)
    #: Per-backend findings, keyed by backend name in request order.
    findings: Dict[str, DetectionFindings] = field(default_factory=dict)
    #: Clock reconciliation summary
    #: (:class:`~repro.clock.health.ClockHealthReport`); ``None`` when
    #: the pipeline ran without ``reconcile_clock``.
    clock: Optional[object] = None

    def detected(self, address: int) -> bool:
        return address in self.racy_addresses


class OfflinePipeline:
    """Runs the complete offline stage over a trace bundle.

    Args:
        program: the traced binary.
        mode: replay mode — ``"full"`` (ProRace), ``"forward"``,
            ``"basicblock"`` (RaceZ), or ``"sampled"`` (no reconstruction:
            detection over PEBS samples only).
        detectors: registry names of the detector backends to run over
            the merged event stream — all of them side-by-side in one
            decode/replay pass.  The first name is the *primary*
            backend: its verdicts populate ``DetectionResult.races``,
            drive the §5.1 regeneration loop, and head the report.
            Unknown names raise
            :class:`~repro.errors.UnknownDetectorError` immediately.
        detect_shards: address-shard the detection stage across this
            many parallel FastTrack workers (sync events broadcast,
            accesses partitioned by address hash, findings merged back
            into exact serial order).  Takes effect only on the
            single-``fasttrack`` configuration; anything else falls
            back to the serial pass.  The shard fan-out runs on
            processes where fork inheritance makes the event plan free
            to share, on threads elsewhere.
        reconcile_clock: run clock reconciliation (:mod:`repro.clock`)
            before analysis — estimate (or reuse, for v4 containers) a
            per-core :class:`~repro.clock.model.ClockModel` from the
            sync log, correct and monotonicity-repair every timestamp,
            and order events by uncertainty-aware merge keys.  The
            result then carries a
            :class:`~repro.clock.health.ClockHealthReport`.  On a
            pristine trace the model snaps to the exact identity and
            every verdict is bit-identical to the default path.
    """

    def __init__(
        self,
        program: Program,
        mode: str = "full",
        detectors: Sequence[str] = (DEFAULT_DETECTOR,),
        detect_shards: int = 1,
        reconcile_clock: bool = False,
    ) -> None:
        self.program = program
        self.mode = mode
        self.detectors = resolve_detectors(detectors)
        self.detect_shards = max(1, detect_shards)
        self.reconcile_clock = reconcile_clock
        #: ``(bundle, context, replay_result)`` of the last finished
        #: :meth:`analyze`, which :meth:`events_for` reuses for that
        #: very bundle object.
        self._analyzed: Optional[
            Tuple[TraceBundle, AnalysisContext, ReplayResult]] = None

    # ------------------------------------------------------------------

    def context_for(self, bundle: TraceBundle) -> AnalysisContext:
        """A fresh analysis context for *bundle* (clock-reconciled
        first when the pipeline was built with ``reconcile_clock``)."""
        clock_model = None
        clock_repair = None
        reconcile_seconds = 0.0
        if self.reconcile_clock:
            from ..clock.repair import apply_clock_correction

            begin = time.perf_counter()
            bundle, clock_model, clock_repair = apply_clock_correction(
                bundle
            )
            reconcile_seconds = time.perf_counter() - begin
        context = AnalysisContext(self.program, bundle, mode=self.mode,
                                  clock=clock_model)
        # Estimation/correction cost is reconstruction work (Figure 12).
        context.reconstruction_seconds += reconcile_seconds
        context.clock_model = clock_model
        context.clock_repair = clock_repair
        return context

    def events_for(self, bundle: TraceBundle):
        """Produce the HB-consistent event stream for *bundle* — the
        stream race confirmation plans witnesses on, and the hook
        alternative detectors (lockset, reference) consume in tests and
        ablations.

        Returns ``(events, replay_result)`` where *events* is the sorted
        list of ``(sort_key, Access | SyncOp)`` pairs,
        :meth:`~repro.analysis.context.AnalysisContext.merged_events`
        materialized: the very merge ``analyze()`` consumes.

        When *bundle* is the very object this pipeline's last
        ``analyze()`` finished on (matched by identity, not by content),
        that analysis's context is reused: its decoded paths, located
        records, timelines, per-thread replays and batches, with no
        decode or replay run again.  The stream is then the one the
        detectors ran on, replayed under the poison set of
        ``analyze()``'s final §5.1 round, and *replay_result* is that
        round's result (``DetectionResult.replay``).  Any other bundle
        object, even an equal copy, gets a fresh context that decodes
        and replays *bundle* for one unpoisoned round.  The reused
        context is held until the next ``analyze()``.
        """
        analyzed = self._analyzed
        if analyzed is not None and analyzed[0] is bundle:
            _bundle, context, replay_result = analyzed
        else:
            context = self.context_for(bundle)
            replay_result = context.replay()
        events = list(context.merged_events())
        return events, replay_result

    def _detection_pass(
        self, context: AnalysisContext
    ) -> Tuple[Tuple[DetectorBackend, ...], int]:
        """One detection pass over *context*'s merged stream with fresh
        backends; returns ``(backends, events_processed)``.

        One loop over the splice merge
        (:meth:`AnalysisContext.merged_batches`) hands every backend
        each sync operation and each whole columnar run, with the run's
        stream position, through :meth:`DetectorBackend.sync` and
        :meth:`DetectorBackend.feed_batch`, however many backends run.
        With ``detect_shards > 1`` and a single ``fasttrack`` backend,
        detection runs address-sharded in parallel with a deterministic
        findings merge instead (verdicts bit-identical, tested).
        """
        backends = tuple(create_backend(name) for name in self.detectors)
        if (self.detect_shards > 1 and len(backends) == 1
                and type(backends[0]) is FastTrack):
            sharded = run_sharded_fasttrack(context,
                                            shards=self.detect_shards)
            return (sharded,), sharded.events_processed
        syncs = [backend.sync for backend in backends]
        feeds = [backend.feed_batch for backend in backends]
        events_processed = 0
        for item in context.merged_batches():
            if item[0] == BATCH_SYNC:
                op = item[1]
                for sync in syncs:
                    sync(op)
                events_processed += 1
            else:
                _, batch, start, stop, base = item
                for feed in feeds:
                    feed(batch, start, stop, base)
                events_processed += stop - start
        return backends, events_processed

    def _snapshot_path(self, context: AnalysisContext,
                       checkpoint_dir: Path | str) -> Path:
        """Content-addressed snapshot file for this (bundle, parameters)
        pair inside *checkpoint_dir*."""
        import hashlib

        digest = hashlib.sha256(
            context._snapshot_key().encode()
        ).hexdigest()[:12]
        return Path(checkpoint_dir) / f"analyze-{digest}.ckpt"

    def analyze(self, bundle: TraceBundle,
                checkpoint_dir: Optional[Path | str] = None,
                resume: bool = False) -> DetectionResult:
        """Run the full offline analysis over *bundle*.

        With *checkpoint_dir*, the per-thread replay state is snapshotted
        after every continuing §5.1 regeneration round; *resume* restores
        such a snapshot and re-enters the fixed-point mid-flight, with a
        final result bit-identical to the uninterrupted run.
        """
        # Release the previous bundle's context before building this
        # one, so two contexts are never alive at once.
        self._analyzed = None
        context = self.context_for(bundle)
        detection_seconds = 0.0
        poisoned: FrozenSet[int] = frozenset()
        rounds = 0
        # After a resume, the first loop iteration replays incrementally
        # from the restored cache, typically changing nothing — but the
        # detector state of the interrupted process is gone, so the
        # early unchanged-stream break must not fire until one detection
        # pass has rebuilt it.
        resume_floor = 0
        snapshot: Optional[Path] = None
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            snapshot = self._snapshot_path(context, checkpoint_dir)
            if resume and snapshot.exists():
                poisoned, rounds = context.load_snapshot(snapshot)
                resume_floor = rounds
            elif snapshot.exists():
                snapshot.unlink()
        backends: Tuple[DetectorBackend, ...] = ()
        replay_result: ReplayResult | None = None
        events_processed = 0

        while True:
            rounds += 1
            replay_result = context.replay(poisoned)
            if rounds > resume_floor + 1 and not context.last_replay_changed:
                # The regenerated extended trace is bit-identical to the
                # previous round's, so every verdict over it is too: the
                # previous detector state stands and this round's poison
                # hits would be a subset of what is already poisoned.
                break

            begin = time.perf_counter()
            backends, events_processed = self._detection_pass(context)
            detection_seconds += time.perf_counter() - begin

            # §5.1 regeneration reacts to the primary backend's
            # *streaming* verdicts.  (A buffering backend like
            # ``predict`` reports only at finish() and so never grows
            # the poison set when run as primary — pair it with a
            # streaming backend, e.g. ``fasttrack,predict``, to keep
            # regeneration driven.)
            racy = backends[0].racy_addresses()
            # §5.1 regeneration: if a detected race lands on a location
            # whose *emulated* value fed some reconstructed address,
            # poison it and regenerate.
            poison_hits = set()
            for accesses in replay_result.per_thread.values():
                for access in accesses:
                    if access.taint:
                        poison_hits |= access.taint & racy
            if (
                not poison_hits
                or poison_hits <= poisoned
                or rounds > MAX_REGENERATIONS
            ):
                break
            poisoned = poisoned | frozenset(poison_hits)
            if snapshot is not None:
                # Checkpoint the state a resumed process needs to redo
                # exactly this loop's next iteration: the grown poison
                # set and the cached replays it will extend.
                context.save_snapshot(snapshot, poisoned, rounds)

        assert replay_result is not None
        assert backends, "detection never ran"
        # finish() is part of detection: for streaming backends it only
        # freezes accessors, but the predictive backend runs its whole
        # witness search here.
        begin = time.perf_counter()
        findings: Dict[str, DetectionFindings] = {}
        for backend in backends:
            findings[backend.name] = backend.finish()
        detection_seconds += time.perf_counter() - begin
        primary = findings[self.detectors[0]]
        timings = OfflineTimings(
            decode_seconds=context.decode_seconds,
            reconstruction_seconds=context.reconstruction_seconds,
            detection_seconds=detection_seconds,
        )
        clock_report = None
        if self.reconcile_clock and context.clock_model is not None:
            from ..clock.health import build_clock_health
            from ..clock.repair import RepairStats

            overlap, total = context.clock_overlap_stats()
            clock_report = build_clock_health(
                context.clock_model,
                context.clock_repair or RepairStats(),
                context.bundle.defects or TraceDefects(),
                overlap, total,
            )
        result = DetectionResult(
            races=list(primary.races),
            racy_addresses=primary.racy_addresses,
            replay=replay_result,
            regeneration_rounds=rounds,
            timings=timings,
            events_processed=events_processed,
            degradation=self.degradation_report(
                bundle, context, replay_result
            ),
            detectors=self.detectors,
            findings=findings,
            clock=clock_report,
        )
        self._analyzed = (bundle, context, replay_result)
        return result

    def degradation_report(
        self,
        bundle: TraceBundle,
        context: AnalysisContext,
        replay_result: ReplayResult,
    ) -> DegradationReport:
        """Reconcile declared trace defects with observed degradation."""
        defects = bundle.defects or TraceDefects()
        paths = context.paths
        governor = bundle.governor
        return DegradationReport(
            samples_dropped=defects.samples_dropped,
            drop_bursts=defects.drop_bursts,
            pt_gaps=defects.pt_gaps,
            pt_packets_lost=defects.pt_packets_lost,
            sync_records_lost=defects.sync_records_lost,
            alloc_records_lost=defects.alloc_records_lost,
            tsc_perturbed=defects.tsc_perturbed,
            log_truncated_at_tsc=defects.log_truncated_at_tsc,
            corrupted_sections=defects.corrupted_sections,
            clock_skewed_cores=defects.clock_skewed_cores,
            clock_drifted_cores=defects.clock_drifted_cores,
            clock_steps=defects.clock_steps,
            clock_regressions=defects.clock_regressions,
            governor_active=governor is not None,
            governor_epochs=len(governor.epochs) if governor else 0,
            governor_tier_transitions=(
                governor.tier_transitions if governor else 0
            ),
            governor_pt_sheds=governor.pt_sheds if governor else 0,
            governor_pt_bytes_shed=(
                governor.pt_bytes_shed if governor else 0
            ),
            governor_hard_drop_bursts=(
                governor.hard_drop_bursts if governor else 0
            ),
            governor_hard_dropped_samples=(
                governor.hard_dropped_samples if governor else 0
            ),
            governor_watchdog_trips=(
                governor.watchdog_trips if governor else 0
            ),
            governor_sync_stalls=governor.sync_stalls if governor else 0,
            gaps_crossed=sum(p.ovf_gaps for p in paths.values()),
            windows_aborted=replay_result.stats.windows_aborted,
            samples_unaligned=context.samples_unaligned,
            suppressed_accesses=context.suppressed_accesses,
            threads_skipped=context.skipped_threads,
            incomplete_paths=sum(
                1 for p in paths.values() if not p.complete
            ),
            timeline_rejections=sum(
                t.total_rejections for t in context.timelines.values()
            ),
            recovery_ratio=replay_result.stats.recovery_ratio,
        )
