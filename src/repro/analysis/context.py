"""The analysis context: round-invariant artifact cache for the offline
stage.

§5.1's race-triggered regeneration re-runs reconstruction with a grown
poison set, and §7.6 notes the offline phases "can be easily
parallelized".  The seed implementation contradicted both: every
regeneration round re-decoded nothing but re-replayed *all* threads,
rebuilt every timeline, re-materialized the full event list and re-sorted
it globally.  :class:`AnalysisContext` splits the offline state into what
a round can and cannot change:

**Round-invariant** (computed once per bundle, cached here):

* decoded per-thread paths (PT decode);
* sync/alloc records located onto the paths;
* PEBS samples aligned onto the paths;
* the :class:`~repro.analysis.generations.AllocationIndex`;
* per-thread timelines (they depend only on paths, aligned samples and
  located records — never on the poison set);
* the sorted sync-event stream.

**Round-variant** (cached per thread, invalidated selectively):

* per-thread replays.  Poisoning an address can only change a replay
  that *emulated* that address (the poison set is consulted exactly at
  emulating stores — see ``ProgramMap.emulated_touched``), so a round
  re-replays only the threads whose ``touched`` set intersects the newly
  poisoned addresses and reuses every other thread's cached
  :class:`~repro.replay.engine.ThreadReplay` verbatim;
* per-thread lowered event streams, pre-sorted by the global event key.

The merged happens-before-consistent stream is produced by a k-way
``heapq.merge`` over the pre-sorted per-thread streams — no global
materialize-and-sort — and the detector consumes it incrementally.

Event ordering
--------------

Events sort by the total key ``(tsc, kind_rank, tid, seq)``:

* accesses rank before sync records at equal TSC (the seed's behaviour);
* sync records carry a zero ``tid`` slot so that ``seq`` — the machine's
  exact global emission order — stays authoritative for same-TSC sync
  pairs (a blocked lock completing inside another thread's unlock must
  keep its release-before-acquire order; breaking ties by tid would
  invert the HB edge);
* accesses tie-break on ``(tid, step_index)``, giving same-TSC accesses
  from different threads a deterministic, reproducible cross-thread
  order (the seed left this to sort stability over dict iteration).

Within one thread the key is strictly increasing in the step index
(timelines are strictly monotone), so per-thread streams are sorted by
construction and the k-way merge is valid.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..detector.batch import BATCH_RUN, BATCH_SYNC, EventBatch
from ..detector.events import (
    EVENT_KIND_ACCESS,
    EVENT_KIND_SYNC,
    Access,
    AccessKind,
    EventKey,
    SyncOp,
    access_sort_key,
    sync_sort_key,
    uncertain_merge_tsc,
)
from ..errors import CheckpointError, UsageError
from ..faults import MAX_TSC_JITTER
from ..isa.program import Program
from ..ptdecode.decoder import (
    AlignedSample,
    DecodedPath,
    align_samples,
    decode_all_tolerant,
    locate_syncs,
)
from ..replay.engine import (
    ReplayEngine,
    ReplayFailure,
    ReplayResult,
    ReplayStats,
    ThreadReplay,
)
from ..replay.window import PROV_SAMPLED, RecoveredAccess
from ..tracing.bundle import TraceBundle
from .generations import AllocationIndex
from .timeline import ThreadTimeline, build_timeline

# The total event order (EVENT_KIND_ACCESS/EVENT_KIND_SYNC, EventKey,
# access_sort_key, sync_sort_key) lives in repro.detector.events — the
# one shared definition every consumer of the merged stream (pipeline,
# sweeps, tests) uses, so backends cannot drift on event ordering.  The
# names are re-exported from this module (see the imports above) for
# the analysis-layer callers.


@dataclass
class ContextStats:
    """Instrumentation counters for the caching behaviour (tested)."""

    decode_calls: int = 0
    timeline_builds: int = 0
    replay_rounds: int = 0
    threads_replayed: int = 0
    threads_reused: int = 0


class AnalysisContext:
    """Caches one bundle's round-invariant artifacts and per-thread
    replays across §5.1 regeneration rounds.

    Args:
        program: the traced binary.
        bundle: the trace bundle under analysis.
        mode: replay mode (``"full"``, ``"forward"``, ``"basicblock"``,
            or ``"sampled"``).
        jobs: worker count for per-thread fan-outs (decode, replay).
        executor: execution strategy for the replay fan-out (``"thread"``
            or ``"process"``; see :mod:`repro.parallel`).
        round_cache: when False, every :meth:`replay` call recomputes all
            threads from scratch (the reference behaviour the incremental
            path is property-tested against).
        clock: a reconciled :class:`~repro.clock.model.ClockModel` for
            *bundle* (whose timestamps must already be corrected, see
            :func:`~repro.clock.repair.apply_clock_correction`).  Event
            merge keys then carry the model's uncertainty half-widths:
            each access merges at the late edge of its uncertainty
            interval, clamped at its thread's next own sync record, so
            cross-thread pairs inside each other's uncertainty are
            ordered only by sync-derived happens-before.  ``None`` (or
            the identity model) leaves ordering bit-identical to
            pre-clock builds.
    """

    def __init__(
        self,
        program: Program,
        bundle: TraceBundle,
        mode: str = "full",
        jobs: int = 1,
        executor: str = "thread",
        max_iterations: int = 4,
        round_cache: bool = True,
        supervisor=None,
        clock=None,
    ) -> None:
        self.program = program
        self.bundle = bundle
        self.mode = mode
        self.replay_mode = "full" if mode == "sampled" else mode
        self.jobs = max(1, jobs)
        self.executor = executor
        self.max_iterations = max_iterations
        self.round_cache = round_cache
        #: Optional :class:`~repro.supervise.SupervisorConfig` for the
        #: replay fan-outs; :attr:`run_ledger` then accumulates one
        #: merged ledger across all regeneration rounds.
        self.supervisor = supervisor
        self.run_ledger = None
        if supervisor is not None:
            from ..supervise import RunLedger

            self.run_ledger = RunLedger()
        self.stats = ContextStats()
        #: Wall-clock accumulators for the Figure 12 breakdown.  Timeline
        #: construction is attributed to reconstruction — always, in both
        #: analyze() and events_for() (the seed timed it in one and not
        #: the other).  Detection time is owned by the caller.
        self.decode_seconds = 0.0
        self.reconstruction_seconds = 0.0
        #: False when the last replay() round reused every cached thread
        #: unchanged — the merged stream, and therefore every detector
        #: verdict over it, is provably identical to the previous round.
        self.last_replay_changed = True
        #: Per-thread decode/replay failures (tid → reason): one faulty
        #: thread degrades to a skipped thread, never a dead analysis.
        self.decode_failures: Dict[int, str] = {}
        self.replay_failures: Dict[int, str] = {}
        #: Accesses suppressed by the conservative truncation cutoff in
        #: the last merged_events() pass (see :meth:`merged_events`).
        self.suppressed_accesses = 0

        self._paths: Optional[Dict[int, DecodedPath]] = None
        self._located_syncs = None
        self._located_allocs = None
        self._aligned: Optional[Dict[int, List[AlignedSample]]] = None
        self._alloc_index: Optional[AllocationIndex] = None
        self._timelines: Optional[Dict[int, ThreadTimeline]] = None
        self._sync_events: Optional[List[Tuple[EventKey, SyncOp]]] = None
        self._threads: Dict[int, ThreadReplay] = {}
        self._access_events: Dict[int, List[Tuple[EventKey, Access]]] = {}
        self._access_batches: Dict[int, EventBatch] = {}
        self._last_poisoned: Optional[FrozenSet[int]] = None
        #: Reconciled clock model (None = identity = clock path off).
        self.clock = (clock if clock is not None
                      and not getattr(clock, "is_identity", True)
                      else None)
        self._clock_cores: Optional[Dict[int, int]] = None
        self._clock_syncs: Dict[int, Tuple[List[int], List[float]]] = {}

    # ------------------------------------------------------------------
    # Round-invariant artifacts (lazy, computed exactly once)
    # ------------------------------------------------------------------

    @property
    def paths(self) -> Dict[int, DecodedPath]:
        """Decoded per-thread paths — PT decode runs exactly once.

        Decode is tolerant: a thread whose stream cannot be decoded
        (even with gap resynchronization) lands in
        :attr:`decode_failures` and is skipped by every later stage.
        PEBS samples are handed to the decoder so OVF gaps can
        resynchronize at the next sample instead of failing.
        """
        if self._paths is None:
            begin = time.perf_counter()
            sample_map = {
                tid: self.bundle.samples_of_thread(tid)
                for tid in self.bundle.pt_traces
            }
            self._paths, self.decode_failures = decode_all_tolerant(
                self.program, self.bundle.pt_traces,
                config=self.bundle.pt_config,
                jobs=self.jobs, samples=sample_map,
            )
            self.decode_seconds += time.perf_counter() - begin
            self.stats.decode_calls += 1
        return self._paths

    @property
    def located_syncs(self):
        if self._located_syncs is None:
            paths = self.paths
            begin = time.perf_counter()
            self._located_syncs = {
                tid: locate_syncs(
                    path,
                    [r for r in self.bundle.sync_records if r.tid == tid],
                )
                for tid, path in paths.items()
            }
            self.decode_seconds += time.perf_counter() - begin
        return self._located_syncs

    @property
    def located_allocs(self):
        if self._located_allocs is None:
            paths = self.paths
            begin = time.perf_counter()
            located = {}
            for tid, path in paths.items():
                per_thread = []
                for record in self.bundle.alloc_records:
                    if record.tid != tid:
                        continue
                    index = path.locate(record.ip, record.tsc)
                    if index is not None:
                        per_thread.append((record, index))
                located[tid] = per_thread
            self._located_allocs = located
            self.decode_seconds += time.perf_counter() - begin
        return self._located_allocs

    @property
    def aligned(self) -> Dict[int, List[AlignedSample]]:
        """PEBS samples pinned onto the paths — alignment is poison-free
        and runs exactly once."""
        if self._aligned is None:
            paths = self.paths
            begin = time.perf_counter()
            self._aligned = {
                tid: align_samples(
                    paths[tid], self.bundle.samples_of_thread(tid),
                    tolerance=(self._clock_half_width(tid)
                               if self.clock is not None else 0.0),
                )
                for tid in sorted(paths)
            }
            self.reconstruction_seconds += time.perf_counter() - begin
        return self._aligned

    @property
    def alloc_index(self) -> AllocationIndex:
        if self._alloc_index is None:
            begin = time.perf_counter()
            self._alloc_index = AllocationIndex(self.bundle.alloc_records)
            self.reconstruction_seconds += time.perf_counter() - begin
        return self._alloc_index

    @property
    def timelines(self) -> Dict[int, ThreadTimeline]:
        """Per-thread timelines.  Round-invariant: they depend on paths,
        aligned samples and located records — never on the poison set —
        so they are built exactly once (the seed rebuilt them per round)."""
        if self._timelines is None:
            paths = self.paths
            aligned = self.aligned
            syncs = self.located_syncs
            allocs = self.located_allocs
            begin = time.perf_counter()
            epochs = tuple(self.bundle.period_epochs)
            self._timelines = {
                tid: build_timeline(
                    paths[tid],
                    aligned.get(tid, []),
                    syncs.get(tid, []),
                    allocs.get(tid, []),
                    epochs=epochs,
                )
                for tid in paths
            }
            self.reconstruction_seconds += time.perf_counter() - begin
            self.stats.timeline_builds += 1
        return self._timelines

    @property
    def sync_events(self) -> List[Tuple[EventKey, SyncOp]]:
        """The sync-record stream, lowered and key-sorted exactly once."""
        if self._sync_events is None:
            events = [
                (
                    sync_sort_key(record),
                    SyncOp(tid=record.tid, kind=record.kind,
                           target=record.target, tsc=float(record.tsc)),
                )
                for record in self.bundle.sync_records
            ]
            events.sort(key=itemgetter(0))
            self._sync_events = events
        return self._sync_events

    # ------------------------------------------------------------------
    # Uncertainty-aware merge keys (clock reconciliation)
    # ------------------------------------------------------------------

    def _clock_half_width(self, tid: int) -> float:
        if self._clock_cores is None:
            from ..clock.model import core_of_map

            self._clock_cores = core_of_map(self.bundle)
        core = self._clock_cores.get(tid, tid % 4)
        return self.clock.half_width_of(core)

    def _own_sync_points(self, tid: int) -> Tuple[List[int], List[float]]:
        """This thread's own sync records pinned onto its decoded path,
        as parallel (step, tsc) lists sorted by step.

        Pinning is greedy ip-matching in ``seq`` order — program order,
        the one ordering clock damage cannot forge.  The TSC-windowed
        :func:`~repro.ptdecode.decoder.locate_syncs` is exactly what a
        damaged record's timestamp defeats (a regressed fork locates
        nowhere), yet the merge-key clamp needs *that* record most.
        Records whose ip never reappears on the (possibly truncated)
        path are skipped: an unpinned record contributes no clamp.
        """
        cached = self._clock_syncs.get(tid)
        if cached is not None:
            return cached
        path = self.paths.get(tid)
        records = sorted(
            (r for r in self.bundle.sync_records if r.tid == tid),
            key=lambda r: r.seq,
        )
        pairs: List[Tuple[int, float]] = []
        cursor = 0
        for record in records:
            step = path.next_occurrence(record.ip, cursor) \
                if path is not None else None
            if step is None:
                continue
            pairs.append((step, float(record.tsc)))
            cursor = step + 1
        points = ([step for step, _ in pairs], [tsc for _, tsc in pairs])
        self._clock_syncs[tid] = points
        return points

    def merge_key_fn(self, tid: int):
        """A fresh uncertainty merge-key closure ``(step, tsc) ->
        key_tsc`` for one thread, or None when the clock path is off.

        Keys stay monotone in step order by construction: within one
        inter-sync segment the clamp window is fixed and the corrected
        timestamps are nondecreasing, and across a sync boundary the
        next segment's lower clamp sits strictly past the previous
        segment's upper clamp (repaired per-thread sync timestamps are
        strictly increasing).  See
        :func:`~repro.detector.events.uncertain_merge_tsc` for the
        ordering contract.
        """
        if self.clock is None:
            return None
        half_width = self._clock_half_width(tid)
        steps, tscs = self._own_sync_points(tid)

        def key_tsc(step: int, tsc: float) -> float:
            pos = bisect_right(steps, step)
            prev_tsc = tscs[pos - 1] if pos > 0 else None
            next_tsc = tscs[pos] if pos < len(steps) else None
            return uncertain_merge_tsc(tsc, half_width, prev_tsc,
                                       next_tsc)

        return key_tsc

    def clock_overlap_stats(self) -> Tuple[int, int]:
        """``(overlap_events, total_events)`` of the last replay: how
        many accesses had their merge key delayed away from the plain
        ``tsc + half_width`` shift (their uncertainty interval reached
        the thread's next sync anchor, so their cross-thread order is
        sync-derived only), vs all accesses considered."""
        if self.clock is None or not self._threads:
            return 0, 0
        overlap = 0
        total = 0
        for tid in sorted(self._threads):
            key_fn = self.merge_key_fn(tid)
            half_width = self._clock_half_width(tid)
            tsc_of = self.timelines[tid].tsc_of
            for access in self._threads[tid].accesses:
                tsc = tsc_of(access.step_index)
                total += 1
                if key_fn(access.step_index, tsc) != tsc + half_width:
                    overlap += 1
        return overlap, total

    # ------------------------------------------------------------------
    # Per-round replay with selective invalidation
    # ------------------------------------------------------------------

    def replay(self, poisoned: FrozenSet[int] = frozenset()) -> ReplayResult:
        """Produce the extended memory trace for *poisoned*.

        The first round replays every thread.  A later round with a grown
        poison set re-replays only the threads whose emulated-address set
        intersects the new poisons; every other thread's cached replay is
        provably identical and reused.  A shrunk or unrelated poison set
        falls back to a full recompute.
        """
        poisoned = frozenset(poisoned)
        self.stats.replay_rounds += 1
        if self.mode == "sampled":
            result = self._replay_sampled()
        else:
            result = self._replay_reconstructed(poisoned)
        # Materialize the remaining reconstruction-phase artifacts now so
        # detection-phase timing (owned by the caller) stays clean.
        self.timelines
        self.alloc_index
        return result

    def _replay_sampled(self) -> ReplayResult:
        """Detection over raw PEBS samples, with no reconstruction.
        Poison-independent: built once, reused every round."""
        if not self._threads:
            aligned = self.aligned
            begin = time.perf_counter()
            for tid in sorted(self.paths):
                items = aligned.get(tid, [])
                stats = ReplayStats()
                stats.sampled = len(items)
                accesses = [
                    RecoveredAccess(
                        tid=tid, step_index=a.step_index, ip=a.sample.ip,
                        address=a.sample.address,
                        is_store=a.sample.is_store,
                        provenance=PROV_SAMPLED,
                    )
                    for a in items
                ]
                self._threads[tid] = ThreadReplay(
                    tid=tid, accesses=accesses, stats=stats,
                    touched=frozenset(),
                )
            self.reconstruction_seconds += time.perf_counter() - begin
            self.stats.threads_replayed += len(self._threads)
            self.last_replay_changed = True
        else:
            self.stats.threads_reused += len(self._threads)
            self.last_replay_changed = False
        return self._assemble_result()

    def _replay_reconstructed(self, poisoned: FrozenSet[int]) -> ReplayResult:
        paths = self.paths
        aligned = self.aligned
        begin = time.perf_counter()
        incremental = (
            self.round_cache
            and self._last_poisoned is not None
            and poisoned >= self._last_poisoned
        )
        if incremental:
            fresh = poisoned - self._last_poisoned
            tids = sorted(
                tid for tid, entry in self._threads.items()
                if entry.touched & fresh
            )
        else:
            tids = sorted(paths)
            self._threads.clear()
            self._access_events.clear()
            self._access_batches.clear()
        engine = ReplayEngine(
            self.program, mode=self.replay_mode,
            max_iterations=self.max_iterations, poisoned=poisoned,
            jobs=self.jobs, executor=self.executor,
            supervisor=self.supervisor,
        )
        changed = False
        for replay in engine.replay_threads(paths, aligned, tids,
                                            tolerant=True):
            if isinstance(replay, ReplayFailure):
                # Isolate the failure: drop this thread's events and
                # carry on with every other thread's analysis.
                self.replay_failures[replay.tid] = replay.error
                self._threads.pop(replay.tid, None)
                self._access_events.pop(replay.tid, None)
                self._access_batches.pop(replay.tid, None)
                changed = True
                continue
            old = self._threads.get(replay.tid)
            # Compare the reconstructed access streams, not the whole
            # ThreadReplay: a replay under a larger poison set can step
            # a different number of fixed-point iterations while its
            # accesses stay identical, and a spurious "changed" here
            # would cost an extra regeneration round.
            if old is None or old.accesses != replay.accesses:
                changed = True
                self._access_events.pop(replay.tid, None)
                self._access_batches.pop(replay.tid, None)
            self._threads[replay.tid] = replay
        if self.run_ledger is not None and engine.last_ledger is not None:
            self.run_ledger.merge(engine.last_ledger)
        self.stats.threads_replayed += len(tids)
        self.stats.threads_reused += len(paths) - len(tids)
        self._last_poisoned = poisoned
        self.last_replay_changed = changed
        self.reconstruction_seconds += time.perf_counter() - begin
        return self._assemble_result()

    def _assemble_result(self) -> ReplayResult:
        stats = ReplayStats()
        per_thread: Dict[int, List[RecoveredAccess]] = {}
        touched: Dict[int, FrozenSet[int]] = {}
        for tid in sorted(self._threads):
            entry = self._threads[tid]
            per_thread[tid] = entry.accesses
            touched[tid] = entry.touched
            stats.merge(entry.stats)
        return ReplayResult(
            per_thread=per_thread, paths=self.paths, aligned=self.aligned,
            stats=stats, emulated_touched=touched,
        )

    # ------------------------------------------------------------------
    # Streaming event merge
    # ------------------------------------------------------------------

    def access_events(self, tid: int) -> List[Tuple[EventKey, Access]]:
        """One thread's lowered access events, pre-sorted by the global
        key (strictly increasing: replays emit accesses in step order and
        timelines are strictly monotone in the step index)."""
        cached = self._access_events.get(tid)
        if cached is not None:
            return cached
        timeline = self.timelines[tid]
        generation_of = self.alloc_index.generation
        key_fn = self.merge_key_fn(tid)
        events: List[Tuple[EventKey, Access]] = []
        for access in self._threads[tid].accesses:
            tsc = timeline.tsc_of(access.step_index)
            key_tsc = (key_fn(access.step_index, tsc)
                       if key_fn is not None else tsc)
            events.append(
                (
                    access_sort_key(key_tsc, tid, access.step_index),
                    Access(
                        tid=tid,
                        var=(access.address,
                             generation_of(access.address, tsc)),
                        kind=(
                            AccessKind.WRITE
                            if access.is_store
                            else AccessKind.READ
                        ),
                        ip=access.ip,
                        tsc=tsc,
                        provenance=access.provenance,
                        taint=access.taint,
                    ),
                )
            )
        self._access_events[tid] = events
        return events

    def merged_events(self) -> Iterator[Tuple[EventKey, object]]:
        """The happens-before-consistent event stream: a k-way streaming
        merge of the sync stream and every thread's pre-sorted access
        stream.  Nothing is materialized or globally sorted; the detector
        consumes the iterator incrementally.

        When the bundle's sync/alloc log is known-truncated
        (``defects.log_truncated_at_tsc``), accesses after the cutoff
        are suppressed: happens-before edges there may be missing, and a
        lost edge must degrade detection power, never fabricate a race.
        """
        if self.stats.replay_rounds == 0:
            raise UsageError("call replay() before merged_events()")
        streams = [self.sync_events]
        for tid in sorted(self._threads):
            streams.append(self.access_events(tid))
        merged = heapq.merge(*streams, key=itemgetter(0))
        self.suppressed_accesses = 0
        cutoff = self._effective_cutoff()
        if cutoff is None:
            return merged
        return self._suppress_after(merged, cutoff)

    # ------------------------------------------------------------------
    # Columnar batch merge
    # ------------------------------------------------------------------

    def access_batch(self, tid: int) -> EventBatch:
        """One thread's access events as a columnar
        :class:`~repro.detector.batch.EventBatch` — lowered straight
        from the replayed accesses (no intermediate ``Access`` objects),
        with truncation suppression baked into the columns at build
        time.  Cached and invalidated alongside :meth:`access_events`.
        """
        cached = self._access_batches.get(tid)
        if cached is not None:
            return cached
        batch = EventBatch.build(
            tid,
            self._threads[tid].accesses,
            self.timelines[tid],
            self.alloc_index.generation,
            cutoff=self._effective_cutoff(),
            merge_key=self.merge_key_fn(tid),
        )
        self._access_batches[tid] = batch
        return batch

    def merged_batches(self) -> Iterator[tuple]:
        """The batched twin of :meth:`merged_events`: the same totally
        ordered event stream, delivered as spliced runs instead of
        single events.  Yields ``(BATCH_SYNC, sync_op, gindex)`` and
        ``(BATCH_RUN, batch, start, stop, gindex_base)`` items, where
        the global index numbers events exactly as the scalar merge
        would enumerate them.

        Instead of heap-popping every event, the merge pops only stream
        *heads*: the minimum head's stream emits its entire contiguous
        run up to the next-smallest head (found by bisection on the tsc
        column), so per-event merge cost vanishes for the long
        single-thread stretches sampled traces are made of.  Correctness
        rests on the same strict total order the scalar merge uses —
        keys never collide across streams, so the run boundary is
        unambiguous.  Truncation suppression is applied at batch build;
        this pass refreshes :attr:`suppressed_accesses` to the same
        total the scalar pass would count.
        """
        if self.stats.replay_rounds == 0:
            raise UsageError("call replay() before merged_batches()")
        sync_events = self.sync_events
        batches = [self.access_batch(tid) for tid in sorted(self._threads)]
        self.suppressed_accesses = sum(b.suppressed for b in batches)
        return self._splice_merge(sync_events, batches)

    @staticmethod
    def _splice_merge(
        sync_events: List[Tuple[EventKey, SyncOp]],
        batches: List[EventBatch],
    ) -> Iterator[tuple]:
        # Stream 0 is the sync stream; streams 1.. are the batches.
        heads: List[Tuple[EventKey, int]] = []
        if sync_events:
            heads.append((sync_events[0][0], 0))
        for index, batch in enumerate(batches, start=1):
            if len(batch):
                heads.append((batch.key_at(0), index))
        heapq.heapify(heads)
        positions = [0] * (len(batches) + 1)
        sync_keys: Optional[List[EventKey]] = None
        nsync = len(sync_events)
        gindex = 0
        pop = heapq.heappop
        push = heapq.heappush
        while heads:
            _key, sidx = pop(heads)
            bound = heads[0][0] if heads else None
            if sidx == 0:
                start = positions[0]
                if bound is None:
                    end = nsync
                else:
                    if sync_keys is None:
                        sync_keys = [key for key, _ in sync_events]
                    end = bisect_left(sync_keys, bound, start)
                for j in range(start, end):
                    yield (BATCH_SYNC, sync_events[j][1], gindex)
                    gindex += 1
                positions[0] = end
                if end < nsync:
                    push(heads, (sync_events[end][0], 0))
            else:
                batch = batches[sidx - 1]
                start = positions[sidx]
                end = (batch.run_end(start, bound)
                       if bound is not None else len(batch))
                yield (BATCH_RUN, batch, start, end, gindex)
                gindex += end - start
                positions[sidx] = end
                if end < len(batch):
                    push(heads, (batch.key_at(end), sidx))

    def _effective_cutoff(self) -> Optional[int]:
        """The truncation cutoff after jitter widening, or None for a
        complete log — one definition shared by the scalar suppression
        pass and the batch builder."""
        cutoff = self.truncation_cutoff
        if cutoff is None:
            return None
        defects = self.bundle.defects
        if defects is not None and defects.tsc_perturbed:
            # Jittered sample anchors can understate a true time by up
            # to the jitter bound; widen the distrusted region to match.
            cutoff -= MAX_TSC_JITTER
        if self.clock is not None:
            # Corrected timestamps can understate true time by up to
            # their uncertainty half-width; widen accordingly.
            cutoff -= int(math.ceil(self.clock.max_half_width))
        return cutoff

    @property
    def truncation_cutoff(self) -> Optional[int]:
        """Last trustworthy sync-log TSC, or None for a complete log."""
        defects = self.bundle.defects
        if defects is None:
            return None
        return defects.log_truncated_at_tsc

    def _suppress_after(
        self, merged: Iterator[Tuple[EventKey, object]], cutoff: int
    ) -> Iterator[Tuple[EventKey, object]]:
        for key, event in merged:
            if isinstance(event, Access):
                # A degraded timeline may *understate* an access's true
                # time (lost sync anchors pull interpolation early), so
                # keep only accesses provably before the cutoff: the
                # next exact anchor bounds the true time from above.
                bound = self.timelines[event.tid].upper_bound(key[3])
                if bound > cutoff:
                    self.suppressed_accesses += 1
                    continue
            yield key, event

    # ------------------------------------------------------------------
    # Checkpoint: snapshot/restore the round-variant state
    # ------------------------------------------------------------------

    def _snapshot_key(self) -> str:
        """Identity of the (bundle, analysis parameters) pair a snapshot
        belongs to.  Deliberately *excludes* the round-invariant caches —
        those are recomputed deterministically on restore — and the
        execution knobs (jobs/executor), which never change results."""
        return "|".join(str(part) for part in (
            self.program.name, self.mode, self.max_iterations,
            len(self.bundle.samples), len(self.bundle.sync_records),
            len(self.bundle.alloc_records),
            sorted(self.bundle.pt_traces),
        ))

    def save_snapshot(self, path: Path | str,
                      poisoned: FrozenSet[int] = frozenset(),
                      rounds: int = 0) -> None:
        """Persist the per-thread replay state between §5.1 regeneration
        rounds, so an interrupted ``analyze`` resumes mid-fixed-point.

        Only the round-variant state travels: cached
        :class:`~repro.replay.engine.ThreadReplay` objects, the poison
        set, the fixed-point round counter, and the failure/ledger
        bookkeeping.  The write is atomic (tmp + ``os.replace``) so a
        crash mid-checkpoint leaves the previous snapshot intact.
        """
        payload = {
            "key": self._snapshot_key(),
            "threads": self._threads,
            "last_poisoned": self._last_poisoned,
            "poisoned": frozenset(poisoned),
            "rounds": rounds,
            "replay_failures": dict(self.replay_failures),
            "replay_rounds": self.stats.replay_rounds,
        }
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as out:
            pickle.dump(payload, out, protocol=pickle.HIGHEST_PROTOCOL)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)

    def load_snapshot(self, path: Path | str) -> Tuple[FrozenSet[int], int]:
        """Restore a :meth:`save_snapshot` state; returns the saved
        ``(poisoned, rounds)`` pair for the caller's fixed-point loop.

        Raises :class:`~repro.errors.CheckpointError` when the snapshot
        was written for different work (program, mode, or bundle shape).
        """
        with open(Path(path), "rb") as stream:
            payload = pickle.load(stream)
        if payload.get("key") != self._snapshot_key():
            raise CheckpointError(
                f"snapshot {path} was written for different analysis "
                "parameters; refusing to resume from it"
            )
        self._threads = payload["threads"]
        self._last_poisoned = payload["last_poisoned"]
        self.replay_failures = payload["replay_failures"]
        self.stats.replay_rounds = payload["replay_rounds"]
        # Lowered event streams depend on timelines/alloc-index identity;
        # cheap to relower, unsafe to splice.
        self._access_events.clear()
        self._access_batches.clear()
        return payload["poisoned"], payload["rounds"]

    @property
    def skipped_threads(self) -> Tuple[int, ...]:
        """Threads dropped by tolerant decode or replay, sorted."""
        return tuple(sorted(
            set(self.decode_failures) | set(self.replay_failures)
        ))

    @property
    def samples_unaligned(self) -> int:
        """Samples that could not be pinned onto any decoded path
        (gap-covered TSC, truncated path, undecodable thread)."""
        placed = sum(len(items) for items in self.aligned.values())
        return len(self.bundle.samples) - placed
