"""Layer spans for the traced pass of the end-to-end benchmark.

The traced pass measures where the offline time goes without touching
the program: it wraps each layer's public functions and methods from
here, patching the names where the pipeline looks them up, and restores
the originals afterwards.  Nothing under ``src/`` changes.

Spans nest.  A :class:`Tracer` keeps them in memory as a call-path tree
(one node per distinct path of span names, with a call count, the
inclusive time and the self time).  A span's self time is its duration
minus the durations of the spans it caused, so the self times of every
node, layer spans and benchmark stages alike, add up to the wall time of
the stages exactly.  Stage nodes (names starting with ``@``) belong to
no layer: their self time is what the benchmark reports as unattributed.

The layer of a span is the part of its name before the first dot
(``decode.paths`` belongs to ``decode``).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import repro.analysis.context as context_module
import repro.clock.health as clock_health
import repro.clock.repair as clock_repair
import repro.confirm as confirm_package
import repro.confirm.service as confirm_service
import repro.tracing as tracing
from repro.analysis.context import AnalysisContext
from repro.analysis.pipeline import OfflinePipeline
from repro.detector.batch import BATCH_SYNC, EventBatch
from repro.detector.fasttrack import FastTrack
from repro.detector.witness import WitnessPlanner
from repro.replay.engine import ReplayEngine, ThreadReplay

STAGE_PREFIX = "@"

_MISSING = object()


class SpanNode:
    """One call path of the span tree, aggregated over its calls."""

    __slots__ = ("name", "layer", "children", "count", "total", "self_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.layer: Optional[str] = (
            None if name.startswith(STAGE_PREFIX) else name.split(".", 1)[0]
        )
        self.children: Dict[str, "SpanNode"] = {}
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def walk(self, ancestors: Tuple[str, ...] = ()
             ) -> Iterator[Tuple["SpanNode", Tuple[str, ...]]]:
        """Every node below this one, with the names above it."""
        for node in self.children.values():
            yield node, ancestors
            yield from node.walk(ancestors + (node.name,))


class Tracer:
    """Nested wall-clock spans kept in memory as a call-path tree.

    A frame on the stack is ``[node, start, child_seconds]``; closing it
    charges its duration to the node and to the parent's child time.
    ``counts`` holds work counted at the span boundaries.
    """

    def __init__(self) -> None:
        self.root = SpanNode(STAGE_PREFIX + "pass")
        self._stack: List[list] = [[self.root, 0.0, 0.0]]
        self.counts: Counter = Counter()

    @property
    def depth(self) -> int:
        """Open spans; 0 between stages."""
        return len(self._stack) - 1

    @contextmanager
    def stage(self, name: str):
        """A benchmark stage (trace, analyze, confirm): a span of no
        layer, whose self time counts as unattributed."""
        stack = self._stack
        frame = [stack[-1][0].child(STAGE_PREFIX + name),
                 time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            _close(stack, frame)

    def wrap(self, name: str, fn, counter=None):
        """*fn* inside a span called *name*; *counter* (if given) sees
        the tracer's counts and the result."""
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [stack[-1][0].child(name), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                _close(stack, frame)
            if counter is not None:
                counter(counts, result)
            return result

        return spanned

    def wrap_iterating(self, name: str, step_name: str, fn):
        """*fn* inside a span called *name*; the iterator it returns
        runs each step inside a span called *step_name*."""
        spanned = self.wrap(name, fn)

        @functools.wraps(fn)
        def iterating(*args, **kwargs):
            return _SpannedIterator(self, step_name, spanned(*args, **kwargs))

        return iterating

    # ------------------------------------------------------------------
    # Reading the tree

    def nodes(self) -> Iterator[Tuple[SpanNode, Tuple[str, ...]]]:
        return self.root.walk()

    def layer_self(self, under: Optional[str] = None) -> Counter:
        """Self seconds per layer, optionally only below stage *under*."""
        seconds: Counter = Counter()
        for node, ancestors in self.nodes():
            if node.layer is not None and (
                    under is None or STAGE_PREFIX + under in ancestors):
                seconds[node.layer] += node.self_time
        return seconds

    def inclusive(self, name: str) -> float:
        """Inclusive seconds of span *name*, counting nested repeats of
        the same name once."""
        return sum(node.total for node, ancestors in self.nodes()
                   if node.name == name and name not in ancestors)

    def stage_seconds(self) -> Dict[str, float]:
        return {node.name[len(STAGE_PREFIX):]: node.total
                for node in self.root.children.values()}

    def unattributed(self) -> float:
        """Self time of the stages: covered by no layer span."""
        return sum(node.self_time for node, _ in self.nodes()
                   if node.layer is None)

    def render(self) -> List[str]:
        """The span tree as indented lines (count, inclusive, self)."""
        lines = []
        for node, ancestors in self.nodes():
            indent = "  " * len(ancestors)
            lines.append(
                f"{indent}{node.name:<{34 - len(indent)}}"
                f"{node.count:>9d}{node.total:>11.4f}{node.self_time:>11.4f}"
            )
        return lines


def _close(stack: List[list], frame: list) -> None:
    end = time.perf_counter()
    stack.pop()
    node = frame[0]
    duration = end - frame[1]
    node.count += 1
    node.total += duration
    node.self_time += duration - frame[2]
    stack[-1][2] += duration


class _SpannedIterator:
    """Runs each step of an iterator inside its own span, counting the
    merged-stream items it yields."""

    __slots__ = ("_next", "_spanned_next", "_counts")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._next = iter(inner).__next__
        self._spanned_next = tracer.wrap(name, self._next)
        self._counts = tracer.counts

    def __iter__(self):
        return self

    def __next__(self):
        item = self._spanned_next()
        counts = self._counts
        if item[0] == BATCH_SYNC:
            counts["merge.sync_events"] += 1
        else:
            counts["merge.runs"] += 1
            counts["merge.run_events"] += item[3] - item[2]
        return item


# ---------------------------------------------------------------------------
# Counts taken at the span boundaries
# ---------------------------------------------------------------------------


def _count_decode(counts: Counter, result) -> None:
    paths, _failures = result
    counts["decode.steps"] += sum(len(path.steps) for path in paths.values())


def _count_replay(counts: Counter, replays) -> None:
    for replay in replays:
        if isinstance(replay, ThreadReplay):
            counts["replay.stepped"] += replay.stats.executed_steps
            counts["replay.summary_steps"] += replay.stats.summary_steps


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------

#: ``(owner, attribute, span, step span, counter)`` for every boundary
#: the traced pass wraps.  The owner is where the caller looks the name
#: up: the benchmark's own flow for ``repro.tracing`` and
#: ``repro.confirm``, the analysis context's module globals for decode
#: and timeline functions, classes for methods.
LAYER_SPANS = (
    (tracing, "trace_run", "trace.run", None, None),
    (tracing, "trace_to_bytes", "container.write", None, None),
    (tracing, "read_trace_bytes", "container.read", None, None),
    (clock_repair, "apply_clock_correction", "clock.correct", None, None),
    (AnalysisContext, "clock_overlap_stats", "clock.overlap", None, None),
    (clock_health, "build_clock_health", "clock.health", None, None),
    (context_module, "decode_all_tolerant", "decode.paths", None,
     _count_decode),
    (context_module, "locate_syncs", "decode.syncs", None, None),
    (AnalysisContext, "located_allocs", "decode.allocs", None, None),
    (context_module, "align_samples", "timeline.align", None, None),
    (context_module, "build_timeline", "timeline.build", None, None),
    (context_module, "AllocationIndex", "timeline.allocs", None, None),
    (AnalysisContext, "replay", "replay.round", None, None),
    (ReplayEngine, "replay_threads", "replay.threads", None, _count_replay),
    (EventBatch, "build", "merge.build", None, None),
    (AnalysisContext, "merged_batches", "merge.batches", "merge.splice",
     None),
    (AnalysisContext, "merged_events", "merge.scalar", None, None),
    (OfflinePipeline, "_detection_pass", "detect.pass", None, None),
    (FastTrack, "sync", "detect.sync", None, None),
    (FastTrack, "feed_batch", "detect.feed", None, None),
    (FastTrack, "finish", "detect.finish", None, None),
    (OfflinePipeline, "events_for", "confirm.events_for", None, None),
    (confirm_package, "confirm_races", "confirm.races", None, None),
    (WitnessPlanner, "__init__", "confirm.plan", None, None),
    (WitnessPlanner, "schedule_for", "confirm.plan", None, None),
    (confirm_service, "supervised_map", "confirm.replay", None, None),
)

#: The one boundary the sharded-detection measurement times: the
#: detection stage both the serial and the sharded pipeline run.
DETECTION_STAGE = tuple(entry for entry in LAYER_SPANS
                        if entry[2] == "detect.pass")


def _spanned_attribute(tracer: Tracer, owner, attribute: str, name: str,
                       step_name: Optional[str], counter):
    """The wrapped replacement for ``owner.attribute``, keeping its kind
    (function, method, property or classmethod)."""
    raw = (inspect.getattr_static(owner, attribute)
           if inspect.isclass(owner) else getattr(owner, attribute))

    def spanned(fn):
        if step_name is not None:
            return tracer.wrap_iterating(name, step_name, fn)
        return tracer.wrap(name, fn, counter)

    if isinstance(raw, property):
        return property(spanned(raw.fget))
    if isinstance(raw, classmethod):
        return classmethod(spanned(raw.__func__))
    return spanned(raw)


@contextmanager
def installed(tracer: Tracer, spans=LAYER_SPANS):
    """Patch every boundary in *spans* to record into *tracer*; restore
    the originals on exit, even when the body raises."""
    saved = []
    try:
        for owner, attribute, name, step_name, counter in spans:
            replacement = _spanned_attribute(tracer, owner, attribute, name,
                                             step_name, counter)
            saved.append((owner, attribute,
                          vars(owner).get(attribute, _MISSING)))
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
