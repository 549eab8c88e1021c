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
  streams, whole and split ``feed_batch`` runs, per-shard
  ``feed_batch_shard`` + merge and the ``access()`` adapter agree with
  the oracle :class:`tests.helpers.ReferenceFastTrack` report for
  report, in order and stream index for stream index; a report builds
  its ``Access`` once per reported event.
"""

import heapq
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.detector.batch import BATCH_SYNC, EventBatch
from repro.detector.events import (
    ACCESS_READ,
    ACCESS_WRITE,
    Access,
    AccessKind,
    SyncOp,
)
from repro.detector.fasttrack import FastTrack
from repro.detector.vectorclock import Epoch, VectorClock
from repro.faults import builtin_plans, clock_plans
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import (
    ReferenceFastTrack,
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


def _run_reference(plan, tagged=True):
    """The oracle: every event through ``ReferenceFastTrack.access``,
    tagged with its global stream index when *tagged*."""
    detector = ReferenceFastTrack()
    for item in plan:
        if item[0] == "sync":
            detector.sync(item[1])
        else:
            _, batch, start, stop, base = item
            for i in range(start, stop):
                detector.access(batch.access_at(i),
                                base + i - start if tagged else -1)
    return detector


def _run_access(plan):
    """FastTrack's ``access()`` adapter, one event at a time."""
    detector = FastTrack()
    for item in plan:
        if item[0] == "sync":
            detector.sync(item[1])
        else:
            _, batch, start, stop, _base = item
            for i in range(start, stop):
                detector.access(batch.access_at(i))
    return detector


def _run_batched(plan, cuts=frozenset()):
    """``feed_batch`` over each run, split before every global stream
    index in *cuts*."""
    detector = FastTrack()
    for item in plan:
        if item[0] == "sync":
            detector.sync(item[1])
            continue
        _, batch, start, stop, base = item
        lo = start
        for i in range(start + 1, stop):
            if base + i - start in cuts:
                detector.feed_batch(batch, lo, i, base + lo - start)
                lo = i
        detector.feed_batch(batch, lo, stop, base + lo - start)
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
    races = list(heapq.merge(*(d.races for d in per_shard),
                             key=attrgetter("index")))
    indices = [report.index for report in races]
    accesses = sum(d.accesses_processed for d in per_shard)
    return races, indices, accesses, per_shard[0].sync_processed


def _indices(detector):
    return [report.index for report in detector.races]


def _assert_same(detector, reference):
    assert detector.races == reference.races
    assert _indices(detector) == _indices(reference)
    assert detector.accesses_processed == reference.accesses_processed
    assert detector.sync_processed == reference.sync_processed


@given(stream=_STREAM)
@settings(max_examples=120, deadline=None)
def test_feed_batch_matches_scalar_access_loop(stream):
    _batches, plan = _lower(stream)
    _assert_same(_run_batched(plan), _run_reference(plan))


@given(stream=_STREAM,
       cuts=st.frozensets(st.integers(min_value=1, max_value=79)))
@settings(max_examples=80, deadline=None)
def test_split_feed_batch_matches_reference(stream, cuts):
    _batches, plan = _lower(stream)
    _assert_same(_run_batched(plan, cuts), _run_reference(plan))


@given(stream=_STREAM)
@settings(max_examples=80, deadline=None)
def test_access_adapter_matches_reference(stream):
    _batches, plan = _lower(stream)
    _assert_same(_run_access(plan), _run_reference(plan, tagged=False))


@given(stream=_STREAM, nshards=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_sharded_merge_matches_scalar_order(stream, nshards):
    _batches, plan = _lower(stream)
    reference = _run_reference(plan)
    races, indices, accesses, syncs = _run_sharded(plan, nshards)
    assert races == reference.races
    assert indices == _indices(reference)
    assert accesses == reference.accesses_processed
    assert syncs == reference.sync_processed


def test_access_at_runs_once_per_reported_event():
    """Only a report builds an ``Access``, and a write racing two
    shared readers builds one for both of its reports.  Threads 0 and 1
    read v0 (no report; the reads go shared), thread 2 writes it (two
    reports), then threads 0 and 1 write v1 (one report)."""
    stream = [("access", 0, 0, False), ("access", 1, 0, False),
              ("access", 2, 0, True), ("access", 0, 1, True),
              ("access", 1, 1, True)]
    _batches, plan = _lower(stream)
    reference = _run_reference(plan)
    access_at = EventBatch.access_at
    with mock.patch.object(EventBatch, "access_at", autospec=True,
                           side_effect=access_at) as spy:
        batched = _run_batched(plan)
    _assert_same(batched, reference)
    assert _indices(batched) == [2, 2, 4]
    assert spy.call_count == 2


def test_access_reports_the_access_itself():
    """The adapter reports the very object it was given, at the stream
    position it was given (-1 when none is)."""
    first = Access(tid=1, var=(0x10, 0), kind=AccessKind.WRITE, ip=1,
                   tsc=1.0, provenance="sampled")
    second = Access(tid=2, var=(0x10, 0), kind=AccessKind.WRITE, ip=2,
                    tsc=2.0, provenance="sampled")
    detector = FastTrack()
    detector.access(first, 0)
    detector.access(second, 7)
    [report] = detector.races
    assert report.second is second
    assert report.index == 7
    unplaced = FastTrack()
    unplaced.access(first)
    unplaced.access(second)
    assert unplaced.races[0].index == -1


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
    assert _indices(batched) == [51, 52]
    reference = _run_reference(plan)
    _assert_same(batched, reference)
    for nshards in (2, 3):
        races, indices, _, _ = _run_sharded(plan, nshards)
        assert races == reference.races
        assert indices == [51, 52]
