"""The columnar batch pipeline must be an invisible optimization.

Three layers of differential evidence:

* **pipeline-level**: the batched feed, address-sharded
  ``detect_shards > 1`` and the scalar reference
  (:func:`tests.helpers.scalar_findings`, the scalar reference stream
  fed one event at a time) produce bit-identical findings over the
  Table 2 corpus, pristine and degraded — including crash-truncated
  bundles, where suppression is baked into the batch columns instead of
  filtered per event;
* **stream-level**: the spliced batch merge and its ``merged_events``
  view enumerate exactly the events (and keys, and global indices) of
  the scalar lowering and heap merge
  (:func:`tests.helpers.reference_merged_events`), with the same
  truncation-suppression count;
* **detector-level** (hypothesis): on random multi-thread access/sync
  streams, ``feed_batch`` and per-shard ``feed_batch_shard`` + merge
  agree with the scalar ``access()`` loop report-for-report, in order.
"""

import heapq
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.detector.batch import BATCH_SYNC, EventBatch
from repro.detector.events import ACCESS_READ, ACCESS_WRITE, SyncOp
from repro.detector.fasttrack import FastTrack
from repro.detector.vectorclock import Epoch, VectorClock
from repro.faults import builtin_plans, clock_plans
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import (
    reference_merged_events,
    scalar_findings,
    thread_sharded_findings,
)

SCALE = WorkloadScale(iterations=8, threads=4)
CORPUS = ("pfscan", "mysql-791", "apache-25520")
PLANS = ("pebs-overflow", "pt-gap", "crash-truncation", "tsc-jitter")


def _bundle(name, seed, plan_name=None):
    program = RACE_BUGS[name].build(SCALE)
    bundle = trace_run(program, period=100, seed=seed)
    if plan_name is not None:
        plans = {**builtin_plans(0.2, seed=seed),
                 **clock_plans(0.2, seed=seed)}
        bundle, _ = plans[plan_name].apply(bundle)
    return program, bundle


def _assert_matches_scalar(result, scalar, name="fasttrack"):
    """*result*'s findings equal the scalar reference's."""
    fb = result.findings[name]
    fs = scalar[name]
    assert fs.races == fb.races
    assert fs.sorted_addresses() == fb.sorted_addresses()
    assert fs.accesses_processed == fb.accesses_processed
    assert fs.sync_processed == fb.sync_processed


def _analyzed_against_scalar(program, bundle, **kwargs):
    pipeline = OfflinePipeline(program, **kwargs)
    result = pipeline.analyze(bundle)
    _assert_matches_scalar(result, scalar_findings(pipeline, bundle))
    return result


def _assert_identical(scalar, batched):
    fs = scalar.findings["fasttrack"]
    fb = batched.findings["fasttrack"]
    assert fs.races == fb.races
    assert fs.sorted_addresses() == fb.sorted_addresses()
    assert fs.accesses_processed == fb.accesses_processed
    assert fs.sync_processed == fb.sync_processed
    assert scalar.racy_addresses == batched.racy_addresses
    assert [r.pair for r in scalar.races] == [r.pair for r in batched.races]
    assert scalar.regeneration_rounds == batched.regeneration_rounds


# ----------------------------------------------------------------------
# Pipeline-level differential: batched vs scalar reference vs sharded
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_matches_scalar_pristine(name, seed):
    _analyzed_against_scalar(*_bundle(name, seed))


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("plan_name", PLANS)
def test_batched_matches_scalar_degraded(name, plan_name):
    _analyzed_against_scalar(*_bundle(name, 0, plan_name))


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_matches_serial(shards):
    for name in CORPUS:
        program, bundle = _bundle(name, 0)
        serial = OfflinePipeline(program).analyze(bundle)
        sharded = OfflinePipeline(
            program, detect_shards=shards).analyze(bundle)
        _assert_identical(serial, sharded)
        details = sharded.findings["fasttrack"].details
        assert details["shards"] == shards


def test_sharded_thread_executor_matches():
    """The thread executor, the only fan-out that runs where
    multiprocessing cannot fork, is just as exact."""
    program, bundle = _bundle("pfscan", 1)
    pipeline = OfflinePipeline(program)
    serial = pipeline.analyze(bundle)
    sharded = thread_sharded_findings(pipeline, bundle, shards=2)
    _assert_matches_scalar(serial, {"fasttrack": sharded})
    assert sharded.details["shard_executor"] == "thread"


def test_sharded_matches_serial_on_truncated_bundle():
    program, bundle = _bundle("apache-25520", 0, "crash-truncation")
    sharded = _analyzed_against_scalar(program, bundle, detect_shards=3)
    assert sharded.findings["fasttrack"].details["shards"] == 3
    pipeline = OfflinePipeline(program)
    serial = pipeline.analyze(bundle)
    threaded = thread_sharded_findings(pipeline, bundle, shards=3)
    _assert_matches_scalar(serial, {"fasttrack": threaded})


# ----------------------------------------------------------------------
# Stream-level: one merge, checked against the scalar reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed,plan_name,options", [
    pytest.param(0, None, {}, id="None"),
    pytest.param(0, "crash-truncation", {}, id="crash-truncation"),
    # The truncation rule fires here: 3 accesses are suppressed.
    pytest.param(2, "combined", {}, id="combined-seed2"),
    # A fitted clock model: every batch carries its own key column.
    pytest.param(0, "clock-combined", {"reconcile_clock": True},
                 id="clock-combined"),
    pytest.param(0, None, {"mode": "sampled"}, id="sampled"),
])
def test_merged_batches_enumerates_merged_events(seed, plan_name, options):
    """``merged_events()``, the flattened ``merged_batches()`` and the
    scalar reference are one stream: same events, same keys, contiguous
    global indices, and the same truncation-suppression count."""
    program, bundle = _bundle("pfscan", seed, plan_name)
    ctx = OfflinePipeline(program, **options).context_for(bundle)
    ctx.replay()
    reference, suppressed = reference_merged_events(ctx)

    assert list(ctx.merged_events()) == reference
    assert ctx.suppressed_accesses == suppressed

    flat = []
    for item in ctx.merged_batches():
        if item[0] == BATCH_SYNC:
            _, op, gindex = item
            flat.append((gindex, None, op))
        else:
            _, batch, start, stop, gindex = item
            assert 0 <= start < stop <= len(batch)
            for i in range(start, stop):
                flat.append((gindex + i - start, batch.key_at(i),
                             batch.access_at(i)))
    assert ctx.suppressed_accesses == suppressed

    assert len(flat) == len(reference)
    assert [g for g, _, _ in flat] == list(range(len(reference)))
    for (gindex, key, event), (ref_key, ref_event) in zip(flat, reference):
        if key is not None:
            assert key == ref_key
        assert event == ref_event

    if plan_name == "combined":
        assert suppressed > 0, "the truncation rule must fire here"
    if options.get("reconcile_clock"):
        assert ctx.clock is not None, "the clock model must be fitted"
        batches = [ctx.access_batch(tid) for tid in ctx._threads]
        assert batches
        assert all(b.key_tscs is not b.tscs for b in batches)


def test_default_feed_batch_fallback_is_scalar():
    """A backend without a columnar fast path gets the default
    materialize-and-delegate feed_batch — same verdicts either way."""
    program, bundle = _bundle("mysql-791", 0)
    pipeline = OfflinePipeline(program, detectors=("lockset",))
    batched = pipeline.analyze(bundle)
    ls = scalar_findings(pipeline, bundle)["lockset"]
    lb = batched.findings["lockset"]
    assert ls.races == lb.races
    assert ls.accesses_processed == lb.accesses_processed


# ----------------------------------------------------------------------
# Batch internals
# ----------------------------------------------------------------------


def _hand_batch(tid, triples):
    """Build a batch from (var_address, kind, tsc) triples directly."""
    batch = EventBatch(tid)
    batch.prov_table.append("sampled")
    for i, (address, kind, tsc) in enumerate(triples):
        batch.tscs.append(float(tsc))
        batch.vars.append((address, 0))
        batch.kinds.append(kind)
        batch.ips.append(1000 * tid + i)
        batch.steps.append(i)
        batch.prov_codes.append(0)
    return batch


@given(pairs=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    max_size=60,
))
@settings(max_examples=60, deadline=None)
def test_next_change_is_first_differing_position(pairs):
    triples = [(8 * var, ACCESS_WRITE if is_write else ACCESS_READ, i)
               for i, (var, is_write) in enumerate(pairs)]
    batch = _hand_batch(0, triples)
    nxt = batch.next_change
    n = len(pairs)
    assert len(nxt) == n
    for i in range(n):
        expected = next(
            (j for j in range(i + 1, n) if pairs[j] != pairs[i]), n)
        assert nxt[i] == expected
    # Cached: the second access returns the same array object.
    assert batch.next_change is nxt


@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=6), max_size=5),
    clock=st.integers(min_value=0, max_value=7),
    tid=st.integers(min_value=-1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_covers_raw_matches_covers_epoch(entries, clock, tid):
    vc = VectorClock(dict(entries))
    assert vc.covers_raw(clock, tid) == vc.covers_epoch(Epoch(clock, tid))


# ----------------------------------------------------------------------
# Detector-level hypothesis differential
# ----------------------------------------------------------------------

#: One stream event: (tid 0-2, var 0-3, is_write) or a sync op
#: (lock/unlock on one of two locks).
_ACCESS = st.tuples(
    st.just("access"),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
_SYNC = st.tuples(
    st.just("sync"),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["lock", "unlock"]),
    st.integers(min_value=0, max_value=1),
)
_STREAM = st.lists(st.one_of(_ACCESS, _SYNC), min_size=1, max_size=80)


def _lower(stream):
    """Lower a generated stream into per-thread batches plus the merged
    run/sync plan (the same shape ``merged_batches`` emits)."""
    batches = {}
    plan = []
    gindex = 0
    for event in stream:
        if event[0] == "sync":
            _, tid, kind, lock = event
            plan.append(("sync", SyncOp(tid=tid, kind=kind,
                                        target=0x9000 + 16 * lock,
                                        tsc=float(gindex))))
            gindex += 1
            continue
        _, tid, var, is_write = event
        batch = batches.get(tid)
        if batch is None:
            batch = batches[tid] = _hand_batch(tid, [])
        position = len(batch)
        batch.tscs.append(float(gindex))
        batch.vars.append((0x8000 + 8 * var, 0))
        batch.kinds.append(ACCESS_WRITE if is_write else ACCESS_READ)
        batch.ips.append(1000 * tid + position)
        batch.steps.append(position)
        batch.prov_codes.append(0)
        if plan and plan[-1][0] == "run" and plan[-1][1] is batch:
            plan[-1] = ("run", batch, plan[-1][2], position + 1,
                        plan[-1][4])
        else:
            plan.append(("run", batch, position, position + 1, gindex))
        gindex += 1
    return batches, plan


def _run_scalar(plan):
    detector = FastTrack()
    for item in plan:
        if item[0] == "sync":
            detector.sync(item[1])
        else:
            _, batch, start, stop, _base = item
            for i in range(start, stop):
                detector.access(batch.access_at(i))
    return detector


def _run_batched(plan):
    detector = FastTrack()
    for item in plan:
        if item[0] == "sync":
            detector.sync(item[1])
        else:
            _, batch, start, stop, base = item
            detector.feed_batch(batch, start, stop, base)
    return detector


def _run_sharded(plan, nshards):
    per_shard = []
    for shard in range(nshards):
        detector = FastTrack()
        for item in plan:
            if item[0] == "sync":
                detector.sync(item[1])
            else:
                _, batch, start, stop, base = item
                detector.feed_batch_shard(batch, start, stop, base,
                                          shard, nshards)
        per_shard.append(detector)
    merged = heapq.merge(
        *(list(zip(d.race_indices, d.races)) for d in per_shard),
        key=itemgetter(0))
    races = [report for _gidx, report in merged]
    accesses = sum(d.accesses_processed for d in per_shard)
    return races, accesses


@given(stream=_STREAM)
@settings(max_examples=120, deadline=None)
def test_feed_batch_matches_scalar_access_loop(stream):
    batches, plan = _lower(stream)
    scalar = _run_scalar(plan)
    batched = _run_batched(plan)
    assert batched.races == scalar.races
    assert batched.accesses_processed == scalar.accesses_processed
    assert batched.sync_processed == scalar.sync_processed


@given(stream=_STREAM, nshards=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_sharded_merge_matches_scalar_order(stream, nshards):
    _batches, plan = _lower(stream)
    scalar = _run_scalar(plan)
    races, accesses = _run_sharded(plan, nshards)
    assert races == scalar.races
    assert accesses == scalar.accesses_processed


def test_race_indices_are_global_stream_positions():
    """Regression: a run starting deep inside one batch must not tag
    its reports with inflated indices, or the per-shard k-way merge
    reorders nearby races from different shards.  Thread 1's second run
    starts at batch position 50 while thread 2's runs start near 0; the
    two races land at consecutive stream positions 51 and 52."""
    stream = []
    for g in range(50):  # t1 filler; vC at stream position 10
        stream.append(("access", 1, 3 if g == 10 else 0, True))
    stream[0] = ("access", 1, 1, True)
    stream.append(("access", 2, 2, True))   # gidx 50: t2 writes vB
    stream.append(("access", 1, 2, True))   # gidx 51: race on vB
    stream.append(("access", 2, 3, True))   # gidx 52: race on vC
    _batches, plan = _lower(stream)
    batched = _run_batched(plan)
    assert batched.race_indices == [51, 52]
    scalar = _run_scalar(plan)
    for nshards in (2, 3):
        races, _ = _run_sharded(plan, nshards)
        assert races == scalar.races == batched.races
