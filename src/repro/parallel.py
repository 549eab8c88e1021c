"""Shared executor abstraction for the offline analysis service.

§7.6 observes that PT decode and memory reconstruction "can be easily
parallelized" across analysis machines; the whole premise of the offline
phase is that dedicated machines absorb its cost.  The unit of that
parallelism is a whole trace: one analysis decodes and replays its
threads serially in one process, and the fan-outs that go through this
module run whole units of work side by side:

* :func:`repro.analysis.detection_sweep`,
  :func:`repro.analysis.measure_detection_probability` and multi-run
  ``repro detect`` — independent seeded runs.  These default to the
  *process* executor: the work is pure-Python and CPU-bound, so it only
  scales past the GIL in separate interpreters, and every work item
  (program, driver model, seed) is picklable by construction.
* :func:`repro.confirm.confirm_races` — one schedule-controlled
  replay per reported race.

The address-sharded detection stage (``OfflinePipeline(detect_shards=)``)
is the one fan-out inside a single analysis.

Every fan-out returns results in input order regardless of completion
order, so callers are deterministic — ``jobs=4`` is bit-identical to
``jobs=1`` by construction.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

from .errors import WorkerError

T = TypeVar("T")
R = TypeVar("R")

#: Recognized execution strategies.
EXECUTORS = ("serial", "thread", "process")


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs request: ``None``/``0`` means one worker per
    available CPU; negative values are clamped to 1."""
    if not jobs:
        return max(1, os.cpu_count() or 1)
    return max(1, jobs)


class _IndexedCall:
    """Picklable per-item wrapper tagging each outcome with its input
    index, so a failing item is attributable and every completed result
    survives the failure (a bare ``pool.map`` exception names no index
    and discards all siblings)."""

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, pair: Tuple[int, T]) -> Tuple[str, int, object]:
        index, item = pair
        try:
            return ("ok", index, self.fn(item))
        except Exception as error:  # noqa: BLE001 - reported via WorkerError
            return ("err", index, f"{type(error).__name__}: {error}")


def _fold(outcomes: Iterable[Tuple[str, int, object]], n: int) -> List[R]:
    """Input-order results, or :class:`~repro.errors.WorkerError` for
    the lowest failing index with the completed results attached."""
    completed: Dict[int, object] = {}
    first_error: Tuple[int, str] | None = None
    for tag, index, payload in outcomes:
        if tag == "ok":
            completed[index] = payload
        elif first_error is None or index < first_error[0]:
            first_error = (index, str(payload))
    if first_error is not None:
        raise WorkerError(first_error[0], first_error[1],
                          completed=completed)
    return [completed[i] for i in range(n)]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    executor: str = "thread",
) -> List[R]:
    """Map *fn* over *items* with the chosen execution strategy.

    Results come back in input order whatever the completion order, so a
    parallel sweep folds into exactly the same structure as a serial one.
    Degenerate requests (one job, one item, or ``executor="serial"``) run
    inline with zero pool overhead.

    A raising item surfaces as :class:`~repro.errors.WorkerError` naming
    the failing input index (the lowest, when several fail) and carrying
    the completed results by index, so callers — the supervisor above
    all — can retry exactly the failed work.  The original exception is
    chained as ``__cause__`` on the inline path; across a process
    boundary only its rendered message travels.

    The process executor requires *fn* to be a module-level function and
    every item/result to be picklable; all repro work units (programs,
    trace bundles, driver models, detection trials) satisfy this.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}: {executor!r}")
    work: Sequence[T] = items if isinstance(items, list) else list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(work) <= 1 or executor == "serial":
        completed: Dict[int, object] = {}
        for index, item in enumerate(work):
            try:
                completed[index] = fn(item)
            except Exception as error:  # noqa: BLE001
                raise WorkerError(
                    index, f"{type(error).__name__}: {error}",
                    completed=completed,
                ) from error
        return [completed[i] for i in range(len(work))]
    workers = min(jobs, len(work))
    call = _IndexedCall(fn)
    pairs = list(enumerate(work))
    if executor == "thread":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _fold(pool.map(call, pairs), len(work))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _fold(pool.map(call, pairs), len(work))
