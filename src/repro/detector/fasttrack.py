"""The FastTrack happens-before data race detector.

A faithful implementation of the FastTrack algorithm (Flanagan & Freund,
PLDI 2009) that ProRace uses for its offline analysis (§3, §6): full
vector clocks for thread and lock state, adaptive epoch/vector-clock
representation for per-variable read state, epoch-only write state.

The detector is precise with respect to the event stream it is given —
no false positives under happens-before — and reports every racy access
pair it observes rather than stopping at the first.  Timing enters only
through the stream's order: under clock reconciliation the pipeline
merges accesses on uncertainty-clamped keys (see
:mod:`repro.detector.events`), so skewed timestamps can delay an event
in the stream but never place it on the wrong side of a sync-derived
happens-before edge.

Epoch-compact representation
----------------------------

Per-variable epochs are stored as raw ``(clock, tid)`` integer pairs in
slotted fields rather than ``Epoch`` objects — sparse sampled traces
keep almost every variable in the scalar-epoch regime forever, so the
shadow state allocates nothing until a variable actually sees concurrent
readers, and only then promotes to a (copy-on-write) vector clock.
``tid == -1`` encodes the minimal epoch ⊥e.

Column access routine
---------------------

:meth:`FastTrack._read` and :meth:`FastTrack._write` are the one
implementation of the race logic.  They take an event as column values
(thread, variable, ip), check the same-epoch fast path on the
variable's shadow state alone, and build the reported :class:`Access`
only when the event races: ``batch.access_at(position)``, once per
reported event however many reports it makes.  Each report carries the
event's merged-stream position as :attr:`RaceReport.index`.
:meth:`FastTrack.feed_batch` is a plain loop over a columnar
:class:`~repro.detector.batch.EventBatch` run that calls them, and
:meth:`FastTrack.access` an adapter that passes a scalar access's
fields and position and reports that very object.  Nothing else caches
the fast-path answer: the repository's merged streams hold about one
access per (variable, kind) repeat group, and on lock-dense streams the
thread's epoch moves every few accesses, so a second copy of the shadow
state or a repeat-group index cost more than they saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .base import HBDetectorBackend
from .events import Access, AccessKind, RaceReport
from .vectorclock import VectorClock


@dataclass(slots=True)
class _VarState:
    """Per-variable shadow state (FastTrack's adaptive representation).

    Write and read epochs are raw ``(clock, tid)`` integer pairs;
    ``tid == -1`` is the minimal epoch ⊥e (covered by every clock).
    """

    write_clock: int = 0
    write_tid: int = -1
    write_ip: Optional[int] = None
    read_clock: int = 0
    read_tid: int = -1
    read_ip: Optional[int] = None
    #: Non-None once reads are concurrent (the "read-shared" state).
    read_vc: Optional[VectorClock] = None
    #: ip of the last read per thread, for shared-read race reporting.
    read_ips: Optional[Dict[int, int]] = None


class FastTrack(HBDetectorBackend):
    """Streaming FastTrack detector.

    Feed events via :meth:`sync` and :meth:`access` in a happens-before
    consistent order (every release/fork precedes the acquire/join it
    synchronizes with; per-thread program order preserved), or whole
    columnar runs via :meth:`feed_batch`.  Reports accumulate in
    :attr:`races`.  Vector-clock state and the sync semantics live in
    :class:`~repro.detector.base.HBDetectorBackend`.
    """

    name = "fasttrack"

    def __init__(self) -> None:
        super().__init__()
        self._vars: Dict[Tuple[int, int], _VarState] = {}

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    #
    # _read/_write take one event as column values plus where it comes
    # from: *source* and *position* name the event (an EventBatch and
    # the event's index in it, or, from access(), the Access itself and
    # -1), and *gidx* is its merged-stream position.  Only _report turns
    # the event into an Access.

    def access(self, access: Access, index: int = -1) -> None:
        """Consume one scalar access at stream position *index*; a
        report's ``second`` is *access* itself."""
        if access.is_write:
            self._write(access.tid, access.var, access.ip, access, -1, index)
        else:
            self._read(access.tid, access.var, access.ip, access, -1, index)

    def _report(self, var: Tuple[int, int], racing,
                source, position: int, gidx: int) -> None:
        """One report per ``(tid, kind, ip)`` earlier access in *racing*
        against the event at *position* of *source*, whose
        :class:`Access` is built here once."""
        second = source if position < 0 else source.access_at(position)
        for first_tid, first_kind, first_ip in racing:
            self.races.append(
                RaceReport(
                    var=var,
                    first_tid=first_tid,
                    first_kind=first_kind,
                    first_ip=first_ip,
                    second=second,
                    index=gidx,
                )
            )

    def _read(self, tid: int, var: Tuple[int, int], ip: int,
              source, position: int, gidx: int) -> None:
        self.accesses_processed += 1
        clock = self._clock(tid)
        current = clock.get(tid)
        state = self._vars.get(var)

        # Same-epoch fast path on the raw (clock, tid) ints — the
        # overwhelmingly common repeated-read case allocates no Epoch,
        # VectorClock, or _VarState at all.
        if state is not None:
            read_vc = state.read_vc
            if read_vc is None:
                if state.read_clock == current and state.read_tid == tid:
                    return
            elif read_vc.get(tid) == current:
                return
        else:
            state = _VarState()
            self._vars[var] = state

        # write-read race check (⊥e has write_tid == -1, always covered).
        write_tid = state.write_tid
        if write_tid >= 0 and state.write_clock > clock.get(write_tid):
            self._report(var, ((write_tid, AccessKind.WRITE,
                                state.write_ip),),
                         source, position, gidx)

        if state.read_vc is None:
            read_tid = state.read_tid
            if read_tid < 0 or state.read_clock <= clock.get(read_tid):
                # Exclusive read (possibly taking ownership from a
                # covered previous owner).
                state.read_clock = current
                state.read_tid = tid
                state.read_ip = ip
            else:
                # Inflate to read-shared (read_tid != tid here: our own
                # previous read epoch is always covered by our clock).
                vc = VectorClock()
                vc.set(read_tid, state.read_clock)
                vc.set(tid, current)
                state.read_vc = vc
                state.read_ips = {
                    read_tid: (state.read_ip
                               if state.read_ip is not None else -1),
                    tid: ip,
                }
        else:
            state.read_vc.set(tid, current)
            assert state.read_ips is not None
            state.read_ips[tid] = ip

    def _write(self, tid: int, var: Tuple[int, int], ip: int,
               source, position: int, gidx: int) -> None:
        self.accesses_processed += 1
        clock = self._clock(tid)
        current = clock.get(tid)
        state = self._vars.get(var)

        # Same-epoch fast path on the raw (clock, tid) ints: a repeated
        # write by the same thread in the same epoch allocates nothing.
        if state is not None:
            if state.write_clock == current and state.write_tid == tid:
                return
        else:
            state = _VarState()
            self._vars[var] = state

        # write-write race check.
        racing = []
        write_tid = state.write_tid
        if write_tid >= 0 and state.write_clock > clock.get(write_tid):
            racing.append((write_tid, AccessKind.WRITE, state.write_ip))
        # read-write race checks.
        read_vc = state.read_vc
        if read_vc is None:
            read_tid = state.read_tid
            if read_tid >= 0 and state.read_clock > clock.get(read_tid):
                racing.append((read_tid, AccessKind.READ, state.read_ip))
        else:
            if not clock.covers(read_vc):
                read_ips = state.read_ips or {}
                for rtid, rclock in read_vc.items():
                    if rclock > clock.get(rtid):
                        racing.append(
                            (rtid, AccessKind.READ, read_ips.get(rtid)))
            # All read info is now ordered before this write (or
            # reported); FastTrack discards the shared-read set.
            state.read_vc = None
            state.read_ips = None
            state.read_clock = 0
            state.read_tid = -1
            state.read_ip = None
        if racing:
            self._report(var, racing, source, position, gidx)

        state.write_clock = current
        state.write_tid = tid
        state.write_ip = ip

    # ------------------------------------------------------------------
    # Columnar runs
    # ------------------------------------------------------------------

    def feed_batch(self, batch, start: int = 0,
                   stop: int | None = None, base: int = 0) -> None:
        if stop is None:
            stop = len(batch)
        tid = batch.tid
        vars_col = batch.vars
        kinds = batch.kinds
        ips = batch.ips
        read = self._read
        write = self._write
        # *base* is the stream position of the run's first event (batch
        # position *start*), so event i's is base + i - start.
        gbase = base - start
        for i in range(start, stop):
            if kinds[i]:
                write(tid, vars_col[i], ips[i], batch, i, gbase + i)
            else:
                read(tid, vars_col[i], ips[i], batch, i, gbase + i)

    def feed_batch_shard(self, batch, start: int, stop: int, base: int,
                         shard: int, nshards: int) -> None:
        """The :meth:`feed_batch` loop over only the events whose
        variable hashes to *shard*; the rest are skipped untouched.  A
        twin loop, not a branch in :meth:`feed_batch`, so serial
        detection pays nothing for sharding."""
        tid = batch.tid
        vars_col = batch.vars
        kinds = batch.kinds
        ips = batch.ips
        read = self._read
        write = self._write
        gbase = base - start
        for i in range(start, stop):
            var = vars_col[i]
            # Word-granular shards: the low three address bits are
            # within-word offsets, never variable identity.
            if (var[0] >> 3) % nshards != shard:
                continue
            if kinds[i]:
                write(tid, var, ips[i], batch, i, gbase + i)
            else:
                read(tid, var, ips[i], batch, i, gbase + i)
