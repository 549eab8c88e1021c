"""The offline service's one fan-out: :func:`supervised_map` with
retries, deadlines, crash isolation, quarantine and checkpoints.

§7.6 observes that PT decode and memory reconstruction "can be easily
parallelized" across analysis machines.  The unit of that parallelism
is a whole trace: one analysis decodes and replays its threads serially
in one process, and every fan-out over whole units of work goes through
:func:`supervised_map` — the seeded runs of a detection sweep,
:func:`repro.analysis.measure_detection_probability`, multi-run
``repro detect``, the shoot-out's trials, the confirmation replays of
:func:`repro.confirm.confirm_races`, and the shards of address-sharded
detection.  Results come back in input order whatever the completion
order, so ``jobs=4`` is bit-identical to ``jobs=1`` by construction.

The dedicated analysis machines meet failures a plain process pool
turns into catastrophes: one OOM-killed worker raises
``BrokenProcessPool`` and throws away a whole detection sweep, one hung
replay stalls an analysis forever, and a multi-hour sweep interrupted
at 99% restarts from zero.  So the map is supervised:

* **per-item retries** with seeded exponential backoff and jitter —
  deterministic given the :class:`SupervisorConfig` seed, so a chaos
  test can replay the exact schedule.  A call with no policy runs each
  item once, and a failing item ends the call in quarantine;
* **per-item timeouts** and a **whole-call deadline** — a hung worker
  is killed and its item retried; a blown deadline raises
  :class:`~repro.errors.DeadlineExceeded` carrying the partial results;
* **crash isolation** — a SIGKILL/OOM fails only the item its worker
  was running; every completed result is kept and the dead worker is
  replaced;
* **quarantine** — an item that exhausts its retry budget is recorded
  and reported via :class:`~repro.errors.QuarantinedWork` instead of
  silently poisoning the fold;
* **checkpoint/resume** — completed results stream into an append-only
  :class:`~repro.tracing.serialize.ResultJournal`; an interrupted run
  resumes from the journal and produces bit-identical final output;
* a structured :class:`RunLedger` accounting for every attempt, retry,
  timeout, crash, respawn, resumed item, and quarantined index.

Determinism: supervision never changes *what* is computed, only *how
persistently*.  Results are folded by input index, and work functions
are deterministic per item, so a supervised run under any fault plan
that retries to success is bit-identical to the serial no-fault run —
the property test in ``tests/test_property_faults.py`` pins this.

Executors: ``"process"`` (the default; the work is pure-Python and
CPU-bound, so it only scales past the GIL in separate interpreters)
forks each worker once per call, with *fn* and the work list, and
sends it item indices over its pipe; the supervisor waits on the
workers' pipes and kills and replaces a worker only when its item
crashes or times out.  ``"thread"`` runs the same workers on daemon
threads (for platforms without ``fork``); a thread cannot be killed, so
a timed-out thread item is abandoned and retried, and kill faults are
*simulated* by raising :class:`~repro.errors.WorkerCrash`.  The inline
path (``"serial"``, or one job or one item with neither a task timeout
nor a fault plan to isolate) applies retries, backoff and the deadline
but cannot enforce per-item timeouts.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .errors import DeadlineExceeded, QuarantinedWork, WorkerCrash

T = TypeVar("T")
R = TypeVar("R")

#: Recognized execution strategies.
EXECUTORS = ("serial", "thread", "process")

#: Sentinel for a result slot not yet produced.
_UNSET = object()


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs request: ``None``/``0`` means one worker per
    available CPU; negative values are clamped to 1."""
    if not jobs:
        return max(1, os.cpu_count() or 1)
    return max(1, jobs)


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/deadline policy for one supervised fan-out.

    Args:
        retries: per-item retry budget (an item runs at most
            ``retries + 1`` times before quarantine).
        task_timeout: per-item wall-clock limit in seconds; a worker
            exceeding it is killed (process) or abandoned (thread) and
            the item retried.  ``None`` disables.
        deadline: whole-call wall-clock budget in seconds; when it
            expires the run aborts with
            :class:`~repro.errors.DeadlineExceeded`.  ``None`` disables.
        backoff_base: first-retry delay in seconds (0 disables backoff).
        backoff_factor: exponential growth per further retry.
        backoff_jitter: multiplicative jitter fraction, seeded.
        seed: drives the jitter; one seed fully determines every delay.
    """

    retries: int = 2
    task_timeout: Optional[float] = None
    deadline: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    seed: int = 0

    def backoff(self, index: int, attempt: int) -> float:
        """Delay before *attempt* (1-based) of item *index* — zero for
        the first attempt, then seeded exponential backoff with jitter.

        The jitter fraction is hash-derived from (seed, index, attempt)
        with a ``backoff`` domain tag: a pure per-call function of those
        three values (no shared RNG, no draw-order dependence), so the
        retry schedule is identical whatever order a process pool
        completes items in — and *decorrelated* from
        :class:`~repro.faults.WorkerFaultPlan`'s fault draws even when
        both run from the same seed (the two used to share one RNG-seed
        formula, making jitter a pure function of the fault decision).
        """
        if attempt <= 1 or self.backoff_base <= 0:
            return 0.0
        delay = self.backoff_base * self.backoff_factor ** (attempt - 2)
        if self.backoff_jitter > 0:
            digest = hashlib.blake2b(
                f"backoff|{self.seed}|{index}|{attempt}".encode(),
                digest_size=8,
            ).digest()
            unit = int.from_bytes(digest, "big") / 2.0 ** 64
            delay *= 1.0 + self.backoff_jitter * unit
        return delay


@dataclass
class ItemRecord:
    """One work item's supervision history."""

    index: int
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    failures: int = 0
    wall_seconds: float = 0.0
    #: ``pending`` | ``ok`` | ``resumed`` (from a checkpoint journal) |
    #: ``quarantined``.
    outcome: str = "pending"
    error: Optional[str] = None

    @property
    def eventful(self) -> bool:
        return bool(
            self.retries or self.timeouts or self.crashes or self.failures
            or self.outcome in ("quarantined", "resumed")
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "failures": self.failures,
            "wall_seconds": self.wall_seconds,
            "outcome": self.outcome,
            "error": self.error,
        }


@dataclass
class RunLedger:
    """Structured account of one supervised run: what ran, what was
    retried, what crashed, what was resumed, what was given up on."""

    items: List[ItemRecord] = field(default_factory=list)
    #: Worker slots replaced after a kill/timeout (process isolation).
    respawns: int = 0
    #: Items restored from a checkpoint journal instead of re-run.
    resumed: int = 0
    #: Torn-tail bytes the checkpoint journal dropped on open (a writer
    #: died mid-append before this run; the affected items re-run).
    journal_tail_dropped: int = 0
    wall_seconds: float = 0.0
    deadline_hit: bool = False

    @property
    def attempts(self) -> int:
        return sum(r.attempts for r in self.items)

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.items)

    @property
    def timeouts(self) -> int:
        return sum(r.timeouts for r in self.items)

    @property
    def crashes(self) -> int:
        return sum(r.crashes for r in self.items)

    @property
    def failures(self) -> int:
        return sum(r.failures for r in self.items)

    @property
    def quarantined(self) -> Tuple[int, ...]:
        return tuple(sorted(
            r.index for r in self.items if r.outcome == "quarantined"
        ))

    @property
    def eventful(self) -> bool:
        """False for a perfectly boring run (every item succeeded first
        try, nothing resumed) — reports omit the ledger then."""
        return bool(
            self.retries or self.timeouts or self.crashes or self.failures
            or self.respawns or self.resumed or self.quarantined
            or self.deadline_hit or self.journal_tail_dropped
        )

    def to_dict(self) -> dict:
        return {
            "items": len(self.items),
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "failures": self.failures,
            "respawns": self.respawns,
            "resumed": self.resumed,
            "journal_tail_dropped": self.journal_tail_dropped,
            "quarantined": list(self.quarantined),
            "deadline_hit": self.deadline_hit,
            "wall_seconds": self.wall_seconds,
            "eventful_items": [
                r.to_dict() for r in self.items if r.eventful
            ],
        }

    def render(self, max_items: int = 10) -> str:
        lines = [
            f"run ledger: {len(self.items)} items, "
            f"{self.attempts} attempts ({self.retries} retries, "
            f"{self.failures} failures, {self.crashes} crashes, "
            f"{self.timeouts} timeouts, {self.respawns} respawns), "
            f"{self.resumed} resumed from checkpoint",
        ]
        if self.quarantined:
            lines.append(
                f"  quarantined items: {list(self.quarantined)}"
            )
        if self.journal_tail_dropped:
            lines.append(
                f"  checkpoint journal: dropped a "
                f"{self.journal_tail_dropped}-byte torn tail "
                "(writer died mid-append; affected items re-ran)"
            )
        if self.deadline_hit:
            lines.append("  deadline exceeded before completion")
        eventful = [r for r in self.items if r.eventful
                    and r.outcome != "resumed"]
        for record in eventful[:max_items]:
            lines.append(
                f"  item {record.index}: {record.attempts} attempts "
                f"({record.crashes} crashes, {record.timeouts} timeouts, "
                f"{record.failures} failures) -> {record.outcome}"
                + (f" [{record.error}]" if record.error else "")
            )
        if len(eventful) > max_items:
            lines.append(f"  ... and {len(eventful) - max_items} more")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def _serve(conn, fn, work, fault_plan, in_process, inherited) -> None:
    """Worker body: run the items whose ``(index, attempt)`` the
    supervisor sends, answering each with ``("ok", result)``,
    ``("err", message)`` or ``("crash", message)``, until the supervisor
    closes its end.  A kill fault (or a real SIGKILL/OOM) never
    answers: the supervisor reads EOF instead."""
    # A forked worker holds copies of the supervisor's pipe ends; close
    # them so a supervisor's exit reads as EOF here.
    for other in inherited:
        other.close()
    try:
        while True:
            try:
                index, attempt = conn.recv()
            except (EOFError, OSError):
                return
            try:
                if fault_plan is not None:
                    fault_plan.perturb(index, attempt, in_process=in_process)
                payload = ("ok", fn(work[index]))
            except WorkerCrash as error:
                payload = ("crash", str(error))
            except Exception as error:  # noqa: BLE001 - isolation boundary
                payload = ("err", f"{type(error).__name__}: {error}")
            try:
                conn.send(payload)
            except OSError:
                return  # the supervisor gave up on this worker
            except Exception as error:  # noqa: BLE001 - unpicklable result
                conn.send(("err", f"result not sendable: "
                                  f"{type(error).__name__}: {error}"))
    finally:
        conn.close()


class _Worker:
    """A worker reused for every item of one call: a forked process
    when *ctx* is given, else a daemon thread.

    A process worker is what makes crash isolation attributable: a
    SIGKILL takes down exactly the item it was running, the supervisor
    reads EOF on this worker's pipe, and no sibling result is lost (a
    shared pool's ``BrokenProcessPool`` fails every pending future)."""

    def __init__(self, ctx, fn, work, fault_plan, live) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.index = self.attempt = -1
        self.started = 0.0
        if ctx is None:
            self.proc = None
            threading.Thread(
                target=_serve,
                args=(child, fn, work, fault_plan, False, ()),
                daemon=True,
            ).start()
            return
        inherited = [self.conn] + [worker.conn for worker in live]
        self.proc = ctx.Process(
            target=_serve,
            args=(child, fn, work, fault_plan, True,
                  inherited if ctx.get_start_method() == "fork" else ()),
            daemon=True,
        )
        self.proc.start()
        child.close()

    def start(self, index: int, attempt: int) -> None:
        self.index, self.attempt = index, attempt
        self.started = time.monotonic()
        try:
            self.conn.send((index, attempt))
        except OSError:
            pass  # died while idle: its pipe reads EOF, a crash

    def outcome(self) -> Tuple[str, object]:
        """The answer waiting on the pipe, or a crash on EOF."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            code = None
            if self.proc is not None:
                self.proc.join(timeout=5)
                code = self.proc.exitcode
            return ("crash", f"worker died without a result (exit {code})")

    def stop(self) -> None:
        """Let the worker exit: it reads EOF once this end closes."""
        self.conn.close()
        if self.proc is not None:
            self.proc.join(timeout=5)
            if self.proc.is_alive():
                self.kill()

    def kill(self) -> None:
        """Kill a process worker; a thread cannot be killed, so it is
        abandoned (its answer finds the pipe closed)."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.join(timeout=5)
        self.conn.close()


def _context():
    """The process context: ``fork`` where the platform has it, so a
    worker inherits *fn* and the work list instead of unpickling them."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


def supervised_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    executor: str = "process",
    config: Optional[SupervisorConfig] = None,
    fault_plan=None,
    journal=None,
) -> Tuple[List[R], RunLedger]:
    """Map *fn* over *items* under supervision.

    Results come back in input order, bit-identical to the serial run,
    under the retry/timeout/deadline/quarantine semantics of *config*.

    Args:
        fn: deterministic per-item work function.  Results from
            thread or process workers come back over a pipe, so they
            must pickle; where the process executor cannot fork, *fn*
            and the items must pickle too.
        items: the work list.
        jobs: worker count (``None``/``0``: one per CPU).
        executor: ``"serial"``, ``"thread"``, or ``"process"`` (see
            module docstring for isolation semantics).
        config: retry/deadline policy; None runs each item once, with
            no timeout and no deadline.
        fault_plan: optional :class:`~repro.faults.WorkerFaultPlan`
            injected into workers (chaos testing).
        journal: optional
            :class:`~repro.tracing.serialize.ResultJournal`; completed
            results are appended as they land and pre-existing entries
            are restored instead of re-run.

    Returns:
        ``(results, ledger)``.

    Raises:
        DeadlineExceeded: the whole-call budget expired (partial
            results and the ledger ride on the exception).
        QuarantinedWork: one or more items exhausted their retries.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}: {executor!r}")
    work: Sequence[T] = items if isinstance(items, list) else list(items)
    config = config or SupervisorConfig(retries=0)
    jobs = resolve_jobs(jobs)
    n = len(work)
    records = [ItemRecord(index=i) for i in range(n)]
    ledger = RunLedger(items=records)
    results: List[object] = [_UNSET] * n

    if journal is not None:
        ledger.journal_tail_dropped = getattr(
            journal, "dropped_tail_bytes", 0
        )
        for index, value in journal.entries.items():
            if 0 <= index < n:
                results[index] = value
                records[index].outcome = "resumed"
                ledger.resumed += 1

    todo = [i for i in range(n) if results[i] is _UNSET]
    start = time.monotonic()
    # Process isolation is mandatory whenever faults must not take the
    # supervisor down with them (kill plans) or hung workers must be
    # killable (task timeouts) — even with a single worker.
    needs_isolation = executor == "process" and (
        fault_plan is not None or config.task_timeout is not None
    )
    try:
        if not todo:
            pass
        elif (executor == "serial"
                or (jobs <= 1 or len(todo) <= 1) and not needs_isolation):
            _run_inline(fn, work, todo, results, records, ledger,
                        config, fault_plan, journal, start)
        else:
            _run_workers(fn, work, todo, results, records, ledger,
                         config, fault_plan, journal, start,
                         workers=min(jobs, len(todo)),
                         ctx=_context() if executor == "process" else None)
    finally:
        ledger.wall_seconds = time.monotonic() - start

    quarantined = ledger.quarantined
    if quarantined:
        raise QuarantinedWork(quarantined, ledger=ledger,
                              partial=_partial(results))
    return [r if r is not _UNSET else None for r in results], ledger


def _partial(results: List[object]) -> List[object]:
    return [None if r is _UNSET else r for r in results]


def _check_deadline(config: SupervisorConfig, start: float,
                    results: List[object], ledger: RunLedger) -> None:
    if config.deadline is None:
        return
    if time.monotonic() - start > config.deadline:
        ledger.deadline_hit = True
        unfinished = sum(1 for r in results if r is _UNSET)
        raise DeadlineExceeded(
            f"deadline of {config.deadline}s exceeded with "
            f"{unfinished} item(s) unfinished",
            ledger=ledger, partial=_partial(results),
        )


def _note_success(index: int, value: object, elapsed: float,
                  results: List[object], records: List[ItemRecord],
                  journal) -> None:
    results[index] = value
    record = records[index]
    record.outcome = "ok"
    record.wall_seconds += elapsed
    if journal is not None:
        journal.append(index, value)


def _note_failure(index: int, attempt: int, kind: str, message: str,
                  elapsed: float, records: List[ItemRecord],
                  ledger: RunLedger, config: SupervisorConfig,
                  requeue: Optional[Callable[[int, int], None]]) -> bool:
    """Account one failed attempt; requeue if budget remains.  Returns
    True when the item was requeued, False when quarantined."""
    record = records[index]
    record.wall_seconds += elapsed
    record.error = message
    if kind == "timeout":
        record.timeouts += 1
    elif kind == "crash":
        record.crashes += 1
    else:
        record.failures += 1
    if kind in ("timeout", "crash"):
        ledger.respawns += 1
    if attempt > config.retries:
        record.outcome = "quarantined"
        return False
    record.retries += 1
    if requeue is not None:
        requeue(index, attempt + 1)
    return True


def _run_inline(fn, work, todo, results, records, ledger, config,
                fault_plan, journal, start) -> None:
    """Serial supervision: retries, backoff and the deadline apply;
    per-item timeouts cannot be enforced without an isolating worker."""
    for index in todo:
        attempt = 0
        while True:
            attempt += 1
            _check_deadline(config, start, results, ledger)
            delay = config.backoff(index, attempt)
            if delay:
                time.sleep(delay)
            records[index].attempts += 1
            began = time.monotonic()
            try:
                if fault_plan is not None:
                    fault_plan.perturb(index, attempt, in_process=False)
                value = fn(work[index])
            except (KeyboardInterrupt, SystemExit):
                raise
            except WorkerCrash as error:
                kind, message = "crash", str(error)
            except Exception as error:  # noqa: BLE001 - supervision boundary
                kind, message = (
                    "failure", f"{type(error).__name__}: {error}"
                )
            else:
                _note_success(index, value, time.monotonic() - began,
                              results, records, journal)
                break
            if not _note_failure(index, attempt, kind, message,
                                 time.monotonic() - began, records,
                                 ledger, config, requeue=None):
                break


def _run_workers(fn, work, todo, results, records, ledger, config,
                 fault_plan, journal, start, workers, ctx) -> None:
    """Supervision over at most *workers* reused workers (processes
    from *ctx*, else threads), waiting on their pipes between events."""
    # Loaded on the first fan-out only: it adds about 0.7 MB to every
    # process that imports repro, and most never fan out.
    from multiprocessing.connection import wait

    # (not_before, index, attempt) — index tiebreak keeps launch order
    # deterministic when several items share a ready time.
    queue: List[Tuple[float, int, int]] = [(0.0, i, 1) for i in todo]
    idle: List[_Worker] = []
    busy: List[_Worker] = []

    def requeue(index: int, attempt: int) -> None:
        not_before = time.monotonic() + config.backoff(index, attempt)
        heapq.heappush(queue, (not_before, index, attempt))

    try:
        while queue or busy:
            _check_deadline(config, start, results, ledger)
            now = time.monotonic()
            while len(busy) < workers and queue and queue[0][0] <= now:
                _, index, attempt = heapq.heappop(queue)
                worker = (idle.pop() if idle else
                          _Worker(ctx, fn, work, fault_plan, busy + idle))
                records[index].attempts += 1
                worker.start(index, attempt)
                busy.append(worker)
            ready = wait([worker.conn for worker in busy],
                         _wait_seconds(config, start, queue, busy, workers))
            now = time.monotonic()
            for worker in list(busy):
                elapsed = now - worker.started
                if worker.conn in ready:
                    busy.remove(worker)
                    kind, payload = worker.outcome()
                    if kind == "ok":
                        idle.append(worker)
                        _note_success(worker.index, payload, elapsed,
                                      results, records, journal)
                        continue
                    if kind == "err":
                        idle.append(worker)
                    else:
                        worker.kill()
                    _note_failure(
                        worker.index, worker.attempt,
                        "crash" if kind == "crash" else "failure",
                        str(payload), elapsed, records, ledger, config,
                        requeue,
                    )
                elif (config.task_timeout is not None
                        and elapsed > config.task_timeout):
                    busy.remove(worker)
                    worker.kill()
                    _note_failure(
                        worker.index, worker.attempt, "timeout",
                        f"task timeout after {config.task_timeout}s",
                        elapsed, records, ledger, config, requeue,
                    )
    finally:
        for worker in busy:
            worker.kill()
        for worker in idle:
            worker.stop()


def _wait_seconds(config, start, queue, busy, workers) -> Optional[float]:
    """How long the supervisor may wait for an answer before the next
    thing it must act on: the deadline, a task timeout, or a queued
    retry's backoff running out while a worker is free."""
    moments = []
    if config.deadline is not None:
        moments.append(start + config.deadline)
    if config.task_timeout is not None:
        moments.extend(w.started + config.task_timeout for w in busy)
    if queue and len(busy) < workers:
        moments.append(queue[0][0])
    if not moments:
        return None
    return max(0.0, min(moments) - time.monotonic())


# ---------------------------------------------------------------------------
# Checkpoint plumbing
# ---------------------------------------------------------------------------


def journal_path(checkpoint_dir: Path | str, kind: str, key: str) -> Path:
    """The journal file for one (kind, parameter-key) work unit inside
    *checkpoint_dir* — content-addressed, so ``--resume`` finds the
    right journal without the caller naming files."""
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    return Path(checkpoint_dir) / f"{kind}-{digest}.prjl"


def open_journal(checkpoint_dir: Optional[Path | str], kind: str,
                 key: str, resume: bool):
    """A :class:`~repro.tracing.serialize.ResultJournal` for this work
    unit, or None when checkpointing is off.  Without *resume*, any
    stale journal is discarded and a fresh one started."""
    if checkpoint_dir is None:
        return None
    from .tracing.serialize import ResultJournal

    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = journal_path(directory, kind, key)
    if not resume and path.exists():
        path.unlink()
    return ResultJournal(path, key=key)
