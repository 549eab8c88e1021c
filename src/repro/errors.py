"""Structured error taxonomy for the offline analysis runtime.

The offline service runs unattended on dedicated machines (§7.6), so
"something went wrong" must be machine-readable: an operator's retry
wrapper needs to distinguish *bad input* (a rotted trace file — retrying
is pointless) from *runtime misfortune* (a worker OOM-killed mid-sweep —
retrying is exactly right) from *caller bugs* (an API used out of
order).  Every failure the runtime can surface derives from
:class:`ReproError` and maps to a documented CLI exit code:

====  =======================================================
code  meaning
====  =======================================================
0     success, no races found
1     success, data races reported
2     unusable input: :class:`TraceError` / :class:`DecodeError`
      (missing, corrupted, or undecodable trace data), or an
      :class:`UnknownDetectorError` — a ``--detector`` name not in
      the backend registry (argparse's bad-argument convention);
      also any unclassified failure (an exception that is no
      :class:`ReproError`: ``repro`` prints its traceback)
3     :class:`DeadlineExceeded` — the supervised run's whole-call
      wall-clock budget ran out
4     :class:`QuarantinedWork` / :class:`WorkerCrash` — work items
      exhausted their retry budget (by default a fan-out runs each
      item once, so one failing item suffices) or a worker death
      escaped the supervisor
5     :class:`UsageError` — library code broke an API contract; a
      bug in the calling code, which no command line reaches
6     watchdog-degraded run: ``repro trace`` completed, but the
      tracing governor's watchdog tripped (stalled PEBS engine or
      sync tracer), so part of the trace is sync-only or truncated
7     retired: no command returns it, and it is not reused, so
      code 8 keeps its meaning for scripts that test it
8     races reported but none confirmed: ``repro confirm`` (or
      ``repro detect --confirm``) replayed every reported race
      under schedule control and not one fired — the reports
      stand as evidence but carry no re-execution proof
====  =======================================================

Exit codes 2–4 are deliberately distinct: a job scheduler requeues a
code-3 job with a longer deadline, quarantines the *inputs* of a code-4
job for inspection, and discards a code-2 job's trace file outright.
Code 6 is a *success with an asterisk*: the trace file exists and is
loadable, but a scheduler should score its detection power lower and
consider re-tracing the workload.  Code 8 is the inverse asterisk on
code 1: races *were* reported, but deterministic confirmation could
not make any of them fire, so a pager policy should treat them as
unverified leads rather than proven bugs.

Every concrete error class below declares its exit code explicitly
(none inherit silently), and ``tests/test_errors.py`` asserts the full
class → code mapping exhaustively.
"""

from __future__ import annotations

from typing import Optional, Sequence

EXIT_OK = 0
EXIT_RACES = 1
EXIT_TRACE_ERROR = 2
EXIT_DEADLINE = 3
EXIT_QUARANTINE = 4
EXIT_USAGE = 5
#: ``repro trace`` finished, but the governor watchdog degraded tracing
#: mid-run (PEBS stall → sync-only epochs, or sync-tracer stall → log
#: truncation).  The trace is usable yet weaker than requested.
EXIT_DEGRADED = 6
# 7 is retired (see the table above); no constant reuses it.

#: Races were reported but schedule-controlled replay confirmed none of
#: them: every verdict came back unconfirmed/inapplicable, so the
#: reports carry no re-execution proof.
EXIT_UNCONFIRMED = 8


class ReproError(Exception):
    """Base of every structured runtime error; carries its CLI exit
    code so ``repro`` commands never have to pattern-match messages."""

    exit_code = EXIT_TRACE_ERROR


class TraceError(ReproError):
    """The trace input is unusable: missing, malformed, or corrupted.

    :class:`repro.tracing.TraceFormatError` derives from this, so
    callers that only care about the coarse taxonomy can catch
    ``TraceError`` without importing the serializer.
    """

    exit_code = EXIT_TRACE_ERROR


class CheckpointError(TraceError):
    """A checkpoint journal or snapshot does not match the work it is
    being resumed against (different parameters, damaged header)."""

    exit_code = EXIT_TRACE_ERROR


class DecodeError(TraceError):
    """A PT packet stream is inconsistent with the traced binary and
    cannot be decoded even with gap resynchronization."""

    exit_code = EXIT_TRACE_ERROR


class ReplayError(ReproError):
    """Memory reconstruction failed for reasons the trace declared no
    excuse for (as opposed to a tolerated per-thread skip)."""

    exit_code = EXIT_TRACE_ERROR


class UsageError(ReproError):
    """The caller broke an API contract (e.g. consuming merged events
    before any replay round ran).  A bug in the calling code, never a
    property of the input."""

    exit_code = EXIT_USAGE


class UnknownDetectorError(UsageError):
    """A detector backend name that is not in the registry.

    Unlike other :class:`UsageError`\\ s (bugs in calling *code*), a bad
    ``--detector`` name is bad *input* typed at the command line, so it
    maps to exit code 2 — the same code argparse uses for unparseable
    arguments — and carries a did-you-mean suggestion for the operator.
    """

    exit_code = EXIT_TRACE_ERROR

    def __init__(self, name: str, available: Sequence[str],
                 suggestion: Optional[str] = None) -> None:
        message = f"unknown detector {name!r}"
        if suggestion:
            message += f"; did you mean {suggestion!r}?"
        message += f" (available: {', '.join(available)})"
        super().__init__(message)
        self.name = name
        self.available = tuple(available)
        self.suggestion = suggestion


class WorkerCrash(ReproError):
    """A worker process died without reporting a result (SIGKILL, OOM,
    segfault).  Under supervision this fails only the in-flight item;
    escaping to the CLI means the crash was unrecoverable."""

    exit_code = EXIT_QUARANTINE

    def __init__(self, message: str, index: Optional[int] = None,
                 exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.index = index
        self.exitcode = exitcode


class DeadlineExceeded(ReproError):
    """The whole-call deadline of a supervised run expired before every
    item finished.  Carries the run ledger and the partial results (by
    input index, ``None`` where unfinished) so completed work survives."""

    exit_code = EXIT_DEADLINE

    def __init__(self, message: str, ledger=None,
                 partial: Optional[Sequence] = None) -> None:
        super().__init__(message)
        self.ledger = ledger
        self.partial = list(partial) if partial is not None else None


class QuarantinedWork(ReproError):
    """One or more items exhausted their retry budget and were
    quarantined.  Carries the offending input indices, the run ledger,
    and the partial results of everything that did succeed."""

    exit_code = EXIT_QUARANTINE

    def __init__(self, indices: Sequence[int], ledger=None,
                 partial: Optional[Sequence] = None) -> None:
        indices = tuple(sorted(indices))
        super().__init__(
            f"{len(indices)} work item(s) exhausted their retry budget: "
            f"indices {list(indices)}"
        )
        self.indices = indices
        self.ledger = ledger
        self.partial = list(partial) if partial is not None else None


def exit_code_for(error: BaseException) -> int:
    """The documented CLI exit code for *error*: 2 for any unclassified
    failure, so a crash never reads as code 1, "races reported"."""
    return getattr(error, "exit_code", EXIT_TRACE_ERROR)
