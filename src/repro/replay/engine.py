"""Replay engine: reconstruct a whole run's unsampled memory accesses.

Orchestrates :class:`~repro.replay.window.WindowReplayer` over every
thread's decoded path, splitting it at the aligned PEBS samples (Figure
4's alternating forward/backward replays), and assembles the *extended
memory trace* — sampled plus reconstructed accesses — that the race
detector consumes.

Three modes reproduce the paper's Figure 11 comparison:

* ``"full"`` — ProRace: forward + backward replay across basic blocks,
  iterated to fixpoint.
* ``"forward"`` — forward replay only (ablation).
* ``"basicblock"`` — the RaceZ baseline: recovery confined to the basic
  block containing each sample (forward within the block, plus trivial
  backward propagation within that block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..isa.program import Program
from ..parallel import parallel_map
from ..ptdecode.decoder import AlignedSample, DecodedPath, align_samples, decode_all
from ..tracing.bundle import TraceBundle
from .program_map import Known
from .window import (
    PROV_BACKWARD,
    PROV_BASICBLOCK,
    PROV_FORWARD,
    PROV_SAMPLED,
    RecoveredAccess,
    WindowReplayer,
)

_MODES = ("full", "forward", "basicblock")


def _replay_one(work: tuple) -> "ThreadReplay":
    """Module-level worker so the fan-out also runs under the process
    executor (closures don't pickle; engines and paths do)."""
    engine, path, aligned = work
    return engine.replay_thread_full(path, aligned)


@dataclass(frozen=True)
class ReplayFailure:
    """Picklable failure sentinel from the tolerant replay fan-out."""

    tid: int
    error: str


def _replay_one_tolerant(work: tuple):
    """Tolerant worker: one thread's failure becomes a sentinel, not a
    dead fan-out (graceful degradation under faulty traces)."""
    engine, path, aligned = work
    try:
        return engine.replay_thread_full(path, aligned)
    except Exception as error:
        return ReplayFailure(
            tid=path.tid, error=f"{type(error).__name__}: {error}"
        )


@dataclass
class ReplayStats:
    """Counts for the recovery-ratio metrics (Figure 11)."""

    sampled: int = 0
    forward: int = 0
    backward: int = 0
    basicblock: int = 0
    windows: int = 0
    iterations: int = 0
    #: Replay windows cut short at PT gap boundaries: state must not be
    #: carried across a resynchronization point (degradation metric).
    windows_aborted: int = 0
    #: Steps stepped across all forward passes of every window.
    executed_steps: int = 0
    #: Always 0: every step is executed since the span-summary cache
    #: was removed.  Kept because the benchmark harness
    #: (``perfbench/spans.py``) still reads it in every traced pass.
    summary_steps: int = 0

    def merge(self, other: "ReplayStats") -> None:
        """Fold another (per-thread) tally into this one."""
        self.sampled += other.sampled
        self.forward += other.forward
        self.backward += other.backward
        self.basicblock += other.basicblock
        self.windows += other.windows
        self.iterations += other.iterations
        self.windows_aborted += other.windows_aborted
        self.executed_steps += other.executed_steps

    @property
    def recovered(self) -> int:
        return self.forward + self.backward + self.basicblock

    @property
    def recovery_ratio(self) -> float:
        """(recovered + sampled) / sampled — the paper's Figure 11 metric
        ("the number of recovered and sampled memory operations normalized
        to the number of original PEBS-sampled instructions")."""
        if self.sampled == 0:
            return 0.0
        return (self.recovered + self.sampled) / self.sampled


@dataclass
class ThreadReplay:
    """One thread's replay output, self-contained for caching.

    The analysis context keeps these across §5.1 regeneration rounds and
    recomputes only the threads whose :attr:`touched` set intersects the
    newly poisoned addresses (poisoning can only alter a replay that
    emulated one of the poisoned locations).
    """

    tid: int
    accesses: List[RecoveredAccess]
    stats: ReplayStats
    #: Addresses this thread's replay emulated (tried to store an
    #: available value at) — the exact invalidation predicate for
    #: regeneration rounds.
    touched: FrozenSet[int]


@dataclass
class ReplayResult:
    """The extended memory trace plus bookkeeping."""

    per_thread: Dict[int, List[RecoveredAccess]]
    paths: Dict[int, DecodedPath]
    aligned: Dict[int, List[AlignedSample]]
    stats: ReplayStats
    #: Per-thread emulated-address sets (empty for sampled-only results).
    emulated_touched: Dict[int, FrozenSet[int]] = field(default_factory=dict)

    @property
    def accesses(self) -> List[RecoveredAccess]:
        result: List[RecoveredAccess] = []
        for tid in sorted(self.per_thread):
            result.extend(self.per_thread[tid])
        return result


class ReplayEngine:
    """Reconstructs unsampled memory accesses for traced runs."""

    def __init__(
        self,
        program: Program,
        mode: str = "full",
        max_iterations: int = 4,
        poisoned: Optional[FrozenSet[int]] = None,
        jobs: int = 1,
        executor: str = "thread",
        supervisor=None,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}: {mode!r}")
        self.program = program
        self.mode = mode
        self.max_iterations = max_iterations
        self.poisoned = poisoned or frozenset()
        #: Worker count for the per-thread replay fan-out: per-thread
        #: replays are independent (§7.6).
        self.jobs = max(1, jobs)
        self.executor = executor
        #: Optional :class:`~repro.supervise.SupervisorConfig`: the
        #: per-thread fan-out then runs under the supervised runtime
        #: (retries, timeouts, crash isolation) instead of the plain
        #: pool.  The config pickles with the engine; the resulting
        #: ledger lands in :attr:`last_ledger` after each fan-out.
        self.supervisor = supervisor
        self.last_ledger = None

    # ------------------------------------------------------------------

    def replay_bundle(
        self,
        bundle: TraceBundle,
        paths: Optional[Dict[int, DecodedPath]] = None,
    ) -> ReplayResult:
        """Replay every thread of a trace bundle."""
        if paths is None:
            paths = decode_all(
                self.program, bundle.pt_traces, config=bundle.pt_config,
                samples={tid: bundle.samples_of_thread(tid)
                         for tid in bundle.pt_traces},
            )
        aligned_map = {
            tid: align_samples(paths[tid], bundle.samples_of_thread(tid))
            for tid in sorted(paths)
        }
        replays = self.replay_threads(paths, aligned_map, sorted(paths))
        stats = ReplayStats()
        per_thread: Dict[int, List[RecoveredAccess]] = {}
        touched: Dict[int, FrozenSet[int]] = {}
        for replay in replays:
            per_thread[replay.tid] = replay.accesses
            touched[replay.tid] = replay.touched
            stats.merge(replay.stats)
        return ReplayResult(
            per_thread=per_thread, paths=paths, aligned=aligned_map,
            stats=stats, emulated_touched=touched,
        )

    def replay_threads(
        self,
        paths: Dict[int, DecodedPath],
        aligned: Dict[int, List[AlignedSample]],
        tids: Sequence[int],
        tolerant: bool = False,
    ) -> List[ThreadReplay]:
        """Replay a subset of threads, fanned out over the executor.

        This is the unit the analysis context re-runs per regeneration
        round: *tids* names only the threads whose program maps touched
        newly poisoned addresses.  With *tolerant*, a thread whose
        replay raises yields a :class:`ReplayFailure` sentinel in the
        result list instead of killing the whole fan-out.
        """
        work = [(self, paths[tid], aligned.get(tid, [])) for tid in tids]
        worker = _replay_one_tolerant if tolerant else _replay_one
        if self.supervisor is not None:
            from ..supervise import supervised_map

            results, self.last_ledger = supervised_map(
                worker, work, jobs=self.jobs, executor=self.executor,
                config=self.supervisor,
            )
            return results
        return parallel_map(worker, work, jobs=self.jobs,
                            executor=self.executor)

    def replay_thread_full(
        self,
        path: DecodedPath,
        aligned: Sequence[AlignedSample],
    ) -> ThreadReplay:
        """Reconstruct one thread's accesses from its path and samples."""
        stats = ReplayStats()
        stats.sampled += len(aligned)
        # Every resynchronization boundary cuts short the window that
        # would have spanned it (the degradation report's metric).
        stats.windows_aborted += len(path.segment_starts)
        if self.mode == "basicblock":
            accesses, touched = self._replay_basicblock(path, aligned, stats)
        else:
            accesses, touched = self._replay_windows(path, aligned, stats)
        # The sampled instructions' own accesses come from the PEBS
        # records (authoritative address straight from hardware).
        sample_steps = {a.step_index: a.sample for a in aligned}
        final: Dict[int, RecoveredAccess] = {}
        for access in accesses:
            if access.step_index in sample_steps:
                continue
            final[access.step_index] = access
        for step, sample in sample_steps.items():
            final[step] = RecoveredAccess(
                tid=path.tid, step_index=step, ip=sample.ip,
                address=sample.address, is_store=sample.is_store,
                provenance=PROV_SAMPLED,
            )
        for access in final.values():
            if access.provenance == PROV_FORWARD:
                stats.forward += 1
            elif access.provenance == PROV_BACKWARD:
                stats.backward += 1
            elif access.provenance == PROV_BASICBLOCK:
                stats.basicblock += 1
        return ThreadReplay(
            tid=path.tid,
            accesses=[final[j] for j in sorted(final)],
            stats=stats,
            touched=frozenset(touched),
        )

    # ------------------------------------------------------------------

    def _fold_window(self, stats: Optional[ReplayStats],
                     replayer: WindowReplayer) -> None:
        """Fold one window replayer's tallies into the thread stats."""
        if stats is None:
            return
        stats.windows += 1
        stats.iterations += replayer.stats.iterations
        stats.executed_steps += replayer.stats.steps_executed

    def _replay_windows(
        self,
        path: DecodedPath,
        aligned: Sequence[AlignedSample],
        stats: Optional[ReplayStats] = None,
    ) -> Tuple[List[RecoveredAccess], set]:
        """Full/forward-only mode: windows between consecutive samples.

        A resynchronized path is replayed segment by segment: register
        state and the carried program map are invalidated at every gap
        boundary — the same mechanism as the §5.1 syscall invalidation —
        so values reconstructed before a gap can never leak across the
        unknown span and poison post-gap addresses.
        """
        if not path.segment_starts:
            return self._replay_windows_segment(
                path, aligned, 0, len(path.steps), stats
            )
        accesses: List[RecoveredAccess] = []
        touched: set = set()
        bounds = [0] + sorted(path.segment_starts) + [len(path.steps)]
        for seg_lo, seg_hi in zip(bounds, bounds[1:]):
            if seg_lo >= seg_hi:
                continue
            seg_aligned = [
                a for a in aligned if seg_lo <= a.step_index < seg_hi
            ]
            seg_accesses, seg_touched = self._replay_windows_segment(
                path, seg_aligned, seg_lo, seg_hi, stats
            )
            accesses.extend(seg_accesses)
            touched |= seg_touched
        return accesses, touched

    def _replay_windows_segment(
        self,
        path: DecodedPath,
        aligned: Sequence[AlignedSample],
        seg_lo: int,
        seg_hi: int,
        stats: Optional[ReplayStats] = None,
    ) -> Tuple[List[RecoveredAccess], set]:
        """Replay one contiguous decode segment ``[seg_lo, seg_hi)``."""
        accesses: List[RecoveredAccess] = []
        touched: set = set()
        boundaries = [a.step_index for a in aligned]
        contexts = [a.sample.registers for a in aligned]
        memory: Dict[int, Known] = {}
        backward = self.mode == "full"

        # Head window: segment start up to the first sample — backward-
        # replay territory (plus PC-relative forward recovery).
        if boundaries and boundaries[0] > seg_lo:
            replayer = WindowReplayer(
                self.program, path.steps, seg_lo, boundaries[0], path.tid,
                entry_registers=None,
                exit_registers=contexts[0] if backward else None,
                poisoned=self.poisoned,
                max_iterations=self.max_iterations if backward else 1,
            )
            accesses.extend(replayer.run())
            touched |= replayer.touched
            self._fold_window(stats, replayer)

        if not boundaries:
            # No samples at all: only PC-relative forward recovery applies.
            replayer = WindowReplayer(
                self.program, path.steps, seg_lo, seg_hi, path.tid,
                entry_registers=None, exit_registers=None,
                poisoned=self.poisoned, max_iterations=1,
            )
            accesses = replayer.run()
            self._fold_window(stats, replayer)
            return accesses, replayer.touched

        for i, start in enumerate(boundaries):
            end = (
                boundaries[i + 1] if i + 1 < len(boundaries)
                else seg_hi
            )
            exit_regs = (
                contexts[i + 1]
                if backward and i + 1 < len(boundaries)
                else None
            )
            replayer = WindowReplayer(
                self.program, path.steps, start, end, path.tid,
                entry_registers=contexts[i],
                exit_registers=exit_regs,
                entry_memory=memory,
                poisoned=self.poisoned,
                max_iterations=self.max_iterations if backward else 1,
            )
            accesses.extend(replayer.run())
            touched |= replayer.touched
            self._fold_window(stats, replayer)
            memory = replayer.exit_memory
        return accesses, touched

    # ------------------------------------------------------------------

    def _replay_basicblock(
        self,
        path: DecodedPath,
        aligned: Sequence[AlignedSample],
        stats: Optional[ReplayStats] = None,
    ) -> Tuple[List[RecoveredAccess], set]:
        """RaceZ baseline: recovery confined to each sample's basic block."""
        accesses: List[RecoveredAccess] = []
        touched: set = set()
        for item in aligned:
            lo, hi = self._block_bounds(path, item.step_index)
            # Forward within the block, from the sample.
            fwd = WindowReplayer(
                self.program, path.steps, item.step_index, hi, path.tid,
                entry_registers=item.sample.registers,
                exit_registers=None,
                poisoned=self.poisoned, max_iterations=1,
            )
            accesses.extend(fwd.run())
            touched |= fwd.touched
            self._fold_window(stats, fwd)
            # Trivial backward propagation within the block.
            if lo < item.step_index:
                bwd = WindowReplayer(
                    self.program, path.steps, lo, item.step_index, path.tid,
                    entry_registers=None,
                    exit_registers=item.sample.registers,
                    poisoned=self.poisoned, max_iterations=2,
                )
                accesses.extend(bwd.run())
                touched |= bwd.touched
                self._fold_window(stats, bwd)
        renamed = [
            RecoveredAccess(
                tid=a.tid, step_index=a.step_index, ip=a.ip,
                address=a.address, is_store=a.is_store,
                provenance=PROV_BASICBLOCK, taint=a.taint,
            )
            for a in accesses
        ]
        # Overlapping blocks (two samples in one block) may duplicate.
        unique: Dict[int, RecoveredAccess] = {}
        for access in renamed:
            unique.setdefault(access.step_index, access)
        return [unique[j] for j in sorted(unique)], touched

    def _block_bounds(self, path: DecodedPath, step: int) -> tuple[int, int]:
        """Largest step range around *step* staying inside one basic block
        and consecutive in the path (straight-line execution).  Never
        crosses a resynchronization boundary: two coincidentally adjacent
        ips on opposite sides of a gap are not straight-line execution."""
        segment_starts = set(path.segment_starts)
        block = self.program.block_containing(path.steps[step])
        lo = step
        while (
            lo > 0
            and lo not in segment_starts
            and path.steps[lo - 1] == path.steps[lo] - 1
            and block.start <= path.steps[lo - 1]
        ):
            lo -= 1
        hi = step + 1
        while (
            hi < len(path.steps)
            and hi not in segment_starts
            and path.steps[hi] == path.steps[hi - 1] + 1
            and path.steps[hi] < block.end
        ):
            hi += 1
        return lo, hi
