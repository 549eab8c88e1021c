"""Columnar (struct-of-arrays) access-event batches.

An :class:`EventBatch` is one thread's lowered access stream: parallel
arrays of tsc/step/ip/kind packed as :mod:`array` buffers, variable
identities as pre-built ``(address, generation)`` tuples, provenance
strings interned to one byte per access, and taints kept sparse (almost
every access has none).  Building one object per access and heap-popping
them one at a time cost more than the FastTrack algorithm itself; the
columns and the splice merge below remove both.

Batches are built directly from the replayed
:class:`~repro.replay.window.RecoveredAccess` stream by
:meth:`EventBatch.build`, the one lowering of replayed accesses, which
also applies the truncation rule.  The detectors consume them through
the batch protocol (:meth:`~repro.detector.base.DetectorBackend.feed_batch`).
A scalar :class:`Access` is materialized (:meth:`EventBatch.access_at`)
only where one is genuinely needed: FastTrack's race reports, backends
without a columnar feed, and the ``(key, event)`` view
:meth:`AnalysisContext.merged_events` that race confirmation plans on.

Ordering: one batch holds one thread's accesses in step order, so its
keys ``(tsc, EVENT_KIND_ACCESS, tid, step)`` are strictly increasing by
construction (timelines are strictly monotone in the step index).
Under clock reconciliation the key timestamps come from a separate
``key_tscs`` column (uncertainty-shifted, clamped at the thread's next
own sync record, monotone-nondecreasing); the step tie-break keeps the
full keys strictly increasing, so the merge invariant is unchanged.
That makes the splice merge in :meth:`AnalysisContext.merged_batches`
valid: :meth:`EventBatch.run_end` finds, by bisection on the tsc column,
how far this batch's head run extends before the next-smallest head of
any other stream, and the whole run is handed to the detector as one
``(batch, start, stop)`` span instead of per-event heap traffic.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from .events import (
    ACCESS_KINDS,
    ACCESS_READ,
    ACCESS_WRITE,
    EVENT_KIND_SYNC,
    Access,
    EventKey,
    access_sort_key,
)

#: Merge-item tags yielded by ``AnalysisContext.merged_batches()``:
#: ``(BATCH_SYNC, sync_op, global_index)`` or
#: ``(BATCH_RUN, batch, start, stop, global_index_base)``.
BATCH_SYNC = 0
BATCH_RUN = 1


class EventBatch:
    """One thread's access events in columnar (parallel-array) form.

    Columns (all indexed by the batch-local event position):

    * ``tscs`` — ``array('d')`` reconstructed timestamps;
    * ``vars`` — pre-built ``(address, generation)`` variable identities
      (the exact dict keys the detectors use — built once here instead
      of once per event per pass);
    * ``kinds`` — ``array('b')`` of :data:`ACCESS_READ`/:data:`ACCESS_WRITE`;
    * ``ips`` / ``steps`` — ``array('q')`` instruction pointers and path
      step indices;
    * ``prov_codes`` — ``array('b')`` indices into the per-batch interned
      :attr:`prov_table`;
    * ``taints`` — sparse ``{position: taint}`` (only accesses whose
      address computation depended on emulated memory carry one).
    """

    __slots__ = ("tid", "tscs", "key_tscs", "vars", "kinds", "ips",
                 "steps", "prov_codes", "prov_table", "taints",
                 "suppressed")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.tscs = array("d")
        #: Merge-key timestamps.  Aliases :attr:`tscs` (the *same* array
        #: object) unless the batch was built with an uncertainty merge
        #: key (``merge_key``, see :meth:`build`), in which case the
        #: total order runs on these while :meth:`access_at` keeps
        #: reporting the corrected :attr:`tscs`.
        self.key_tscs = self.tscs
        self.vars: List[Tuple[int, int]] = []
        self.kinds = array("b")
        self.ips = array("q")
        self.steps = array("q")
        self.prov_codes = array("b")
        self.prov_table: List[str] = []
        self.taints: Dict[int, object] = {}
        #: Accesses dropped at build time by the truncation cutoff (see
        #: :meth:`build`).
        self.suppressed = 0

    @classmethod
    def build(
        cls,
        tid: int,
        accesses: Iterable,
        timeline,
        generation_of,
        cutoff: Optional[int] = None,
        merge_key=None,
    ) -> "EventBatch":
        """Lower one thread's :class:`RecoveredAccess` stream straight
        into columns (no intermediate ``Access`` objects).

        With a truncation *cutoff* (the bundle's sync/alloc log is
        known-truncated, so happens-before edges after it may be
        missing), only accesses provably before the cutoff are kept: a
        lost edge must cost detection power, never fabricate a race.  A
        degraded timeline may *understate* an access's true time (lost
        sync anchors pull interpolation early), so an access is kept
        only when its next exact timeline anchor — an upper bound on its
        true time — lies at or before the cutoff.  The rest are counted
        in :attr:`suppressed`.

        With *merge_key* (an uncertainty merge-key closure
        ``(step, tsc) -> key_tsc`` from clock reconciliation), the batch
        carries a separate :attr:`key_tscs` column the total order runs
        on; without one, :attr:`key_tscs` aliases :attr:`tscs` and the
        layout is bit-identical to pre-clock builds.
        """
        batch = cls(tid)
        tscs = batch.tscs
        key_tscs = None
        if merge_key is not None:
            key_tscs = batch.key_tscs = array("d")
        vars_col = batch.vars
        kinds = batch.kinds
        ips = batch.ips
        steps = batch.steps
        prov_codes = batch.prov_codes
        prov_table = batch.prov_table
        taints = batch.taints
        interned: Dict[str, int] = {}
        tsc_of = timeline.tsc_of
        upper_bound = timeline.upper_bound if cutoff is not None else None
        position = 0
        for access in accesses:
            step = access.step_index
            if upper_bound is not None and upper_bound(step) > cutoff:
                batch.suppressed += 1
                continue
            tsc = tsc_of(step)
            address = access.address
            tscs.append(tsc)
            if key_tscs is not None:
                key_tscs.append(merge_key(step, tsc))
            steps.append(step)
            ips.append(access.ip)
            kinds.append(ACCESS_WRITE if access.is_store else ACCESS_READ)
            vars_col.append((address, generation_of(address, tsc)))
            provenance = access.provenance
            code = interned.get(provenance)
            if code is None:
                code = len(prov_table)
                prov_table.append(provenance)
                interned[provenance] = code
            prov_codes.append(code)
            if access.taint is not None:
                taints[position] = access.taint
            position += 1
        return batch

    def __len__(self) -> int:
        return len(self.tscs)

    def key_at(self, i: int) -> EventKey:
        """The total-order key of event *i*
        (:func:`~repro.detector.events.access_sort_key`)."""
        return access_sort_key(self.key_tscs[i], self.tid, self.steps[i])

    def access_at(self, i: int) -> Access:
        """Materialize event *i* as a scalar :class:`Access` — the only
        place a replayed access becomes one."""
        return Access(
            tid=self.tid,
            var=self.vars[i],
            kind=ACCESS_KINDS[self.kinds[i]],
            ip=self.ips[i],
            tsc=self.tscs[i],
            provenance=self.prov_table[self.prov_codes[i]],
            taint=self.taints.get(i),
        )

    def run_end(self, start: int, bound: EventKey) -> int:
        """First index ``>= start`` whose key exceeds *bound* — the end
        of the contiguous run this batch can emit before another stream's
        head.  O(log n) by bisection on the tsc column; the equal-tsc
        region is decided in one comparison because every key in it
        shares the prefix ``(tsc, ACCESS, self.tid)`` and keys never
        collide across streams (the bound is another thread's access or
        a sync record).
        """
        bound_tsc = bound[0]
        hi = bisect_right(self.key_tscs, bound_tsc, start)
        if hi == start or self.key_tscs[hi - 1] < bound_tsc:
            return hi
        # Equal-tsc tail: accesses rank before syncs, and access ties
        # break on tid (bound tid differs from ours by construction).
        if bound[1] == EVENT_KIND_SYNC or self.tid < bound[2]:
            return hi
        return bisect_left(self.key_tscs, bound_tsc, start)
