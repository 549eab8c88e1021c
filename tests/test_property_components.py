"""Component-level property tests: timeline monotonicity, heap
recycling laws, PT size accounting, Wilson interval laws."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import wilson_interval
from repro.analysis.timeline import ThreadTimeline
from repro.machine.heap import Heap
from repro.pmu.pt import PTConfig, PacketKind

from tests.helpers import stream_of


# ---------------------------------------------------------------------------
# Timeline
# ---------------------------------------------------------------------------

anchor_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=500),
              st.integers(min_value=0, max_value=100_000)),
    min_size=1, max_size=20,
)


def _to_points(raw):
    """Sorted, strictly increasing in both coordinates, spacing >= steps
    (the machine's one-cycle-per-instruction guarantee)."""
    raw = sorted(set(raw))
    points = []
    for step, tsc in raw:
        if points:
            prev_step, prev_tsc = points[-1]
            if step <= prev_step:
                continue
            tsc = max(tsc, prev_tsc + (step - prev_step))
        points.append((step, tsc))
    return points


@given(anchor_lists)
@settings(max_examples=200)
def test_timeline_strictly_monotone(raw):
    points = _to_points(raw)
    timeline = ThreadTimeline(tid=0, points=points,
                              total_steps=points[-1][0] + 5)
    values = [timeline.tsc_of(s) for s in range(points[-1][0] + 5)]
    assert all(a < b for a, b in zip(values, values[1:]))


@given(anchor_lists)
@settings(max_examples=200)
def test_timeline_exact_at_anchors(raw):
    points = _to_points(raw)
    timeline = ThreadTimeline(tid=0, points=points,
                              total_steps=points[-1][0] + 1)
    for step, tsc in points:
        assert timeline.tsc_of(step) == tsc


@given(anchor_lists)
@settings(max_examples=100)
def test_timeline_interpolation_bounded_by_anchors(raw):
    points = _to_points(raw)
    assume(len(points) >= 2)
    timeline = ThreadTimeline(tid=0, points=points,
                              total_steps=points[-1][0] + 1)
    for (s1, t1), (s2, t2) in zip(points, points[1:]):
        for step in range(s1 + 1, s2):
            assert t1 < timeline.tsc_of(step) < t2


# ---------------------------------------------------------------------------
# Heap
# ---------------------------------------------------------------------------

heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"),
                  st.integers(min_value=1, max_value=256)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
    ),
    max_size=60,
)


@given(heap_ops)
@settings(max_examples=200)
def test_heap_never_overlaps_live_allocations(ops):
    heap = Heap()
    live = []
    tsc = 0
    for kind, value in ops:
        tsc += 1
        if kind == "malloc":
            live.append((heap.malloc(value, tsc), (value + 7) & ~7))
        elif live:
            address, _ = live.pop(value % len(live))
            heap.free(address, tsc)
        spans = sorted((a, a + size) for a, size in live)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start, "live allocations overlap"


@given(heap_ops)
@settings(max_examples=100)
def test_heap_history_consistent(ops):
    heap = Heap()
    live = []
    tsc = 0
    for kind, value in ops:
        tsc += 1
        if kind == "malloc":
            live.append(heap.malloc(value, tsc))
        elif live:
            heap.free(live.pop(value % len(live)), tsc)
    history = heap.history()
    assert sum(1 for a in history if a.live) == len(live)
    for record in history:
        if record.free_tsc is not None:
            assert record.free_tsc >= record.alloc_tsc


# ---------------------------------------------------------------------------
# PT size accounting
# ---------------------------------------------------------------------------

packet_lists = st.lists(
    st.one_of(
        st.builds(lambda t: (PacketKind.TNT, t, 1),
                  st.integers(min_value=1, max_value=10_000)),
        st.builds(lambda t: (PacketKind.TIP, t, 5),
                  st.integers(min_value=1, max_value=10_000)),
    ),
    max_size=100,
)


@given(packet_lists)
@settings(max_examples=200)
def test_pt_size_monotone_in_packets(packets):
    config = PTConfig(mtc_period=0, psb_period=0)
    sizes = [stream_of(packets[:n]).size_bytes(config)
             for n in range(1, len(packets) + 1)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


@given(st.integers(min_value=0, max_value=600))
def test_pt_tnt_packing_density(n_bits):
    config = PTConfig(mtc_period=0, psb_period=0)
    trace = stream_of((PacketKind.TNT, i + 1, 1) for i in range(n_bits))
    overhead = 16 + 5  # PSB + start TIP
    expected = overhead + -(-n_bits // 6)
    assert trace.size_bytes(config) == expected


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=1000))
@settings(max_examples=300)
def test_wilson_contains_estimate_and_ordered(hits, runs):
    assume(hits <= runs)
    low, high = wilson_interval(hits, runs)
    epsilon = 1e-9  # the boundary cases p=0, p=1 round by one ulp
    assert 0.0 <= low <= hits / runs + epsilon
    assert hits / runs - epsilon <= high <= 1.0
