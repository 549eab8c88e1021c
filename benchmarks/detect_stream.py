"""Shared synthetic detector stream for the shard projection and the
clock-key gate.

The shape models a PEBS sample expanded into an instruction window: long
single-thread stretches full of loop locality — a few hot variables
re-read several times then written back — punctuated by reads of shared
state and the occasional unsynchronized write (the races).  No perfbench
workload looks like this: their merged streams hold about one access
per (variable, kind) repeat group (25,149 accesses in 25,059 groups on
``table2-confirm`` at seed 0).  So detection throughput is gated on
those real streams (``perf_smoke.detect_rate``), and this stream serves
only where a synthetic one is the point: the projected address-shard
curve of ``benchmarks/test_detect_throughput.py`` and the clock
merge-key gate of ``benchmarks/perf_smoke.py``, which times the splice
merge's bisections on a layout it controls.

Both representations of the *same* stream are returned:

* a pre-materialized ``Access`` list;
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

