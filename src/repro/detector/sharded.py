"""Address-sharded parallel FastTrack.

Partitions the variable space across workers by address hash and runs
one full FastTrack instance per shard over the same merged event
stream: every **sync** operation is broadcast to all shards, every
**access** is processed by exactly the shard its variable hashes to
(the others skip it in O(1) without touching shadow state).

Why this is exact
-----------------

FastTrack's shadow state splits cleanly: thread and lock vector clocks
depend *only* on the sync stream, while per-variable state depends only
on the sync stream plus that variable's own accesses.  Broadcasting
syncs therefore gives every shard bit-identical thread clocks to the
serial run at every stream position, and each variable's full access
subsequence meets exactly one shard — so the union of per-shard
verdicts equals the serial verdicts, report for report.  Stream *order*
is restored by k-way merging the per-shard report lists on the stream
position each report carries (:attr:`RaceReport.index`); reports for
one event all come from one shard, so the merge is total and
deterministic.  The argument is independent of
how the merged stream was keyed — in particular, uncertainty-clamped
merge keys under clock reconciliation (:mod:`repro.clock`) reach every
shard identically, so sharded verdicts stay bit-identical to serial
with or without a clock model.

Workers and memory
------------------

Workers fan out through :func:`repro.supervise.supervised_map`, each
shard run once.  On platforms whose multiprocessing start method is
``fork`` (Linux), the materialized merge plan — sync ops plus columnar
batch runs — is published in a module global before the workers are
forked and inherited by them for free; each worker ships back only its
report list and counters.  Elsewhere the runner falls back to the
thread executor (shared memory, still deterministic; no GIL-free
scaling).
"""

from __future__ import annotations

import heapq
import multiprocessing
from operator import attrgetter
from typing import Dict, Optional, Tuple

from ..supervise import supervised_map
from .base import DetectorBackend
from .batch import BATCH_SYNC
from .fasttrack import FastTrack

#: (merge items, shard count) published for forked workers.
_PLAN: Optional[Tuple[list, int]] = None


def _shard_worker(shard: int):
    """Run one shard's FastTrack over the published plan (module-level:
    picklable where workers cannot fork)."""
    assert _PLAN is not None, "shard plan not published (non-fork start?)"
    items, nshards = _PLAN
    detector = FastTrack()
    d_sync = detector.sync
    d_feed = detector.feed_batch_shard
    for item in items:
        if item[0] == BATCH_SYNC:
            d_sync(item[1])
        else:
            _, batch, start, stop, base = item
            d_feed(batch, start, stop, base, shard, nshards)
    return (detector.races, detector.accesses_processed,
            detector.sync_processed)


class ShardedFastTrack(DetectorBackend):
    """Deterministically merged findings of the per-shard workers.

    Presents the standard :class:`DetectorBackend` surface (races in
    serial stream order, the shared accessors, :meth:`finish`) so the
    pipeline's regeneration loop and reports treat it exactly like the
    serial backend; ``finish().details`` records the shard fan-out.
    """

    name = "fasttrack"

    def __init__(self, shards: int, executor: str) -> None:
        super().__init__()
        self.shards = shards
        self.executor = executor
        #: Total merged-stream events (accesses + syncs) of the pass.
        self.events_processed = 0

    def _details(self) -> Dict[str, object]:
        return {"shards": self.shards, "shard_executor": self.executor}


def run_sharded_fasttrack(
    context,
    shards: int,
    jobs: Optional[int] = None,
    executor: Optional[str] = None,
) -> ShardedFastTrack:
    """One sharded FastTrack detection pass over *context*'s merged
    batch stream; returns the merged facade backend."""
    global _PLAN
    shards = max(1, shards)
    items = list(context.merged_batches())
    if executor is None:
        executor = ("process"
                    if multiprocessing.get_start_method() == "fork"
                    else "thread")
    _PLAN = (items, shards)
    try:
        results, _ledger = supervised_map(
            _shard_worker, list(range(shards)),
            jobs=jobs if jobs is not None else shards, executor=executor,
        )
    finally:
        _PLAN = None
    backend = ShardedFastTrack(shards=shards, executor=executor)
    backend.races = list(heapq.merge(*(races for races, _, _ in results),
                                     key=attrgetter("index")))
    backend.accesses_processed = sum(r[1] for r in results)
    # Every shard consumed the whole broadcast sync stream once.
    backend.sync_processed = results[0][2] if results else 0
    backend.events_processed = sum(
        1 if item[0] == BATCH_SYNC else item[3] - item[2] for item in items
    )
    return backend
