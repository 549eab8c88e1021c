"""Shared synthetic detector stream for the throughput gate and bench.

The shape models what the replay stage actually hands the detector: a
PEBS sample expands into an instruction window, so the access stream is
long single-thread stretches full of loop locality — a few hot
variables re-read several times then written back — punctuated by reads
of shared state and the occasional unsynchronized write (the races).
That locality is precisely what the columnar fast path exploits
(same-epoch repeat groups skipped by the ``next_change`` index).  The
speedup reported on it is therefore *not* the speedup the pipeline
sees: the merged streams of the perfbench workloads hold about one
access per (variable, kind) repeat group (25,149 accesses in 25,059
groups on ``table2-confirm`` at seed 0), so there the index skips
almost nothing.  It is the fast path's synthetic ceiling, not a best
case manufactured from a single variable.

Both representations of the *same* stream are returned:

* a pre-materialized ``Access`` list — what the scalar path consumes
  (object lowering happens upstream either way, so the scalar pass
  times the detector, not dataclass construction);
* the stream's maximal single-thread segments as :class:`EventBatch`
  runs — exactly the spans ``AnalysisContext.merged_batches`` emits.
"""

import random

from repro.detector.batch import EventBatch
from repro.detector.events import Access, AccessKind

#: Hot variables per expanded window, and loop repeats per variable.
WINDOW_VARS = 4
MIN_REPEATS = 2
MAX_REPEATS = 6
#: Probability a window ends with an (unsynchronized, racy) shared write.
RACY_WRITE_RATE = 0.02


def locality_stream(events=60_000, threads=4, seed=42):
    """Build the stream; returns ``(accesses, chunks)`` — the scalar
    event list and its columnar twin, one :class:`EventBatch` per
    maximal single-thread segment (fed whole, ``base`` = the segment's
    global stream offset)."""
    rng = random.Random(seed)
    tids = tuple(range(1, threads + 1))
    shared = [(0x900000 + 8 * k, 0) for k in range(16)]
    accesses = []
    tsc = 0.0

    def emit(tid, var, kind, provenance):
        nonlocal tsc
        tsc += 1.0
        accesses.append(Access(tid=tid, var=var, kind=kind,
                               ip=rng.randrange(512), tsc=tsc,
                               provenance=provenance))

    while len(accesses) < events:
        tid = rng.choice(tids)
        private_base = 0x100000 * tid
        # One expanded sample window: hot thread-local variables, each
        # re-read by a short loop then written back, plus shared reads.
        for _ in range(WINDOW_VARS):
            hot = (private_base + rng.randrange(64) * 8, 0)
            for _ in range(rng.randrange(MIN_REPEATS, MAX_REPEATS + 1)):
                emit(tid, hot, AccessKind.READ, "forward")
            emit(tid, hot, AccessKind.WRITE, "forward")
            emit(tid, shared[rng.randrange(len(shared))],
                 AccessKind.READ, "sampled")
        if rng.random() < RACY_WRITE_RATE:
            emit(tid, shared[rng.randrange(len(shared))],
                 AccessKind.WRITE, "sampled")

    return accesses, chunk_batches(accesses)


def chunk_batches(accesses):
    """Lower an access stream into one :class:`EventBatch` per maximal
    single-thread segment, tagged with its global stream offset."""
    chunks = []
    batch = None
    interned = None
    base = 0
    for position, access in enumerate(accesses):
        if batch is None or batch.tid != access.tid:
            batch = EventBatch(access.tid)
            interned = {}
            base = position
            chunks.append((batch, base))
        code = interned.get(access.provenance)
        if code is None:
            code = interned[access.provenance] = len(batch.prov_table)
            batch.prov_table.append(access.provenance)
        batch.tscs.append(access.tsc)
        batch.vars.append(access.var)
        batch.kinds.append(1 if access.kind is AccessKind.WRITE else 0)
        batch.ips.append(access.ip)
        batch.steps.append(len(batch.steps))
        batch.prov_codes.append(code)
    return chunks


def warm(chunks):
    """Pre-build every chunk's lazy ``next_change`` index so timed
    passes measure the feed loops, not one-time index construction
    (the pipeline builds it once per batch and reuses it across
    regeneration rounds and shards)."""
    for batch, _base in chunks:
        batch.next_change
