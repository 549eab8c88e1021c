"""The witness planner against its reference search.

:class:`~repro.detector.witness.WitnessPlanner` indexes the stream
once, walks the DFS's first descent without a visited set, and keys
the full DFS on the pointers and the owners only.
:class:`tests.helpers.ReferenceWitnessPlanner` is the search before
those changes.  On every stream both must return the same ``steps``,
``total_steps`` and ``nodes_explored``, or both None, at any node
budget.

The streams a traced run records never make the DFS backtrack.  So
the fixed cases below are built by hand so that it must: the first
descent ends in a state with no move, and the search returns to an
earlier state.  The Hypothesis property adds random 2–4-thread streams.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detector import witness
from repro.detector.events import Access, AccessKind, RaceReport, SyncOp
from repro.detector.witness import WitnessPlanner

from tests.helpers import ReferenceWitnessPlanner

X, Y = 0x1000, 0x2000
LOCK, RWLOCK, SEM, BARRIER = 0x900, 0x910, 0x920, 0x930
BUDGETS = (1, 2, 5, 12, 20_000)


def write(tid, ip, address=X):
    return Access(tid=tid, var=(address, 0), kind=AccessKind.WRITE, ip=ip,
                  tsc=0.0, provenance="test")


def read(tid, ip, address=X):
    return Access(tid=tid, var=(address, 0), kind=AccessKind.READ, ip=ip,
                  tsc=0.0, provenance="test")


def sync(tid, kind, target):
    return SyncOp(tid=tid, kind=kind, target=target, tsc=0.0)


def planned(events, first_at, second_at, max_nodes=20_000):
    """Both planners' schedules for one pair, and their node totals."""
    planner = WitnessPlanner(events, max_nodes=max_nodes, tail=None)
    reference = ReferenceWitnessPlanner(events, max_nodes=max_nodes,
                                        tail=None)
    return (
        planner.search(first_at, second_at),
        reference.search(first_at, second_at),
        planner.nodes_total,
        reference.nodes_total,
    )


def assert_same(events, first_at, second_at, max_nodes=20_000):
    schedule, expected, nodes, expected_nodes = planned(
        events, first_at, second_at, max_nodes)
    assert nodes == expected_nodes
    if expected is None:
        assert schedule is None
        return None
    assert schedule is not None
    assert schedule.steps == expected.steps
    assert schedule.total_steps == expected.total_steps
    assert schedule.nodes_explored == expected.nodes_explored
    return schedule


#: Hand-built streams on which the DFS backtracks: name → (events,
#: first_at, second_at).  Thread 0 issues the first access, thread 1
#: the second, both at the end of the stream.
BACKTRACKING = {
    # Thread 1 takes the lock its access runs under before thread 0
    # has passed its own critical section: the first descent parks
    # thread 1 holding it, and thread 0 can never lock.
    "lock-held-across-access": ([
        write(0, 100, Y), sync(0, "lock", LOCK), sync(0, "unlock", LOCK),
        read(1, 200, Y), sync(1, "lock", LOCK),
        write(0, 1), read(1, 2),
    ], 5, 6),
    # The same with a writer against readers: thread 1 holds the
    # write lock across its access, threads 0 and 2 read-lock.
    "rwlock-writer-against-readers": ([
        write(0, 100, Y), sync(0, "rwlock_rd", RWLOCK),
        sync(2, "rwlock_rd", RWLOCK), sync(2, "rwlock_unlock", RWLOCK),
        sync(0, "rwlock_unlock", RWLOCK),
        read(1, 200, Y), sync(1, "rwlock_wr", RWLOCK),
        write(0, 1), read(1, 2),
    ], 7, 8),
    # One post from thread 2: the first descent hands it to thread 1,
    # whose wait leaves thread 0's wait, and its re-post, stranded.
    "semaphore-count": ([
        sync(2, "sem_post", SEM), sync(0, "sem_wait", SEM),
        sync(0, "sem_post", SEM), sync(1, "sem_wait", SEM),
        read(1, 200, Y), write(0, 1), read(1, 2),
    ], 5, 6),
    "condvar-count": ([
        sync(2, "cond_signal", SEM), sync(0, "cond_wake", SEM),
        sync(0, "cond_signal", SEM), sync(1, "cond_wake", SEM),
        read(1, 200, Y), write(0, 1), read(1, 2),
    ], 5, 6),
    # Two barrier generations (quotas 2 and 4) around a lock thread 1
    # holds across the second generation and its access.
    "barrier-generations": ([
        sync(0, "barrier_arrive", BARRIER),
        sync(1, "barrier_arrive", BARRIER),
        sync(0, "barrier_wait", BARRIER), sync(1, "barrier_wait", BARRIER),
        sync(0, "lock", LOCK), sync(0, "unlock", LOCK),
        read(1, 200, Y), sync(1, "lock", LOCK),
        sync(0, "barrier_arrive", BARRIER),
        sync(1, "barrier_arrive", BARRIER),
        sync(0, "barrier_wait", BARRIER), sync(1, "barrier_wait", BARRIER),
        write(0, 1), read(1, 2),
    ], 12, 13),
    # Thread 0 forks 1 and 2 and joins 2, which must lock before
    # thread 1 takes the lock for good.
    "fork-join": ([
        sync(0, "fork", 1), sync(0, "fork", 2),
        sync(2, "lock", LOCK), sync(2, "unlock", LOCK),
        sync(1, "lock", LOCK), sync(0, "join", 2),
        write(0, 1), read(1, 2),
    ], 6, 7),
    # Thread 2 locks twice, so its first unlock frees the lock and its
    # second drops whoever took it in between.  Thread 3 locks and
    # posts what thread 0 waits for before it locks.  Whether thread 3
    # still owns the lock at pointers (2: done, 3: past its lock)
    # depends on the order, and only the order that drops its
    # ownership lets thread 0 through.
    "reentrant-lock-owner-by-order": ([
        sync(2, "lock", LOCK), sync(2, "lock", LOCK),
        sync(2, "unlock", LOCK), sync(3, "lock", LOCK),
        sync(2, "unlock", LOCK),
        sync(3, "sem_post", SEM), sync(0, "sem_wait", SEM),
        sync(0, "lock", LOCK), sync(0, "unlock", LOCK),
        write(0, 1), read(1, 2),
    ], 9, 10),
}


class TestFixedStreams:
    @pytest.mark.parametrize("name", sorted(BACKTRACKING))
    def test_matches_reference(self, name):
        events, first_at, second_at = BACKTRACKING[name]
        schedule = assert_same(events, first_at, second_at)
        # A search that never backtracks enters one node per step
        # before the pair.
        assert schedule.nodes_explored > schedule.total_steps - 1
        assert [step.detail for step in schedule.steps[-2:]] == [1, 2]

    @pytest.mark.parametrize("name", sorted(BACKTRACKING))
    @pytest.mark.parametrize("max_nodes", BUDGETS)
    def test_matches_reference_in_budget(self, name, max_nodes):
        events, first_at, second_at = BACKTRACKING[name]
        assert_same(events, first_at, second_at, max_nodes)

    def test_owner_order_needs_the_owner_in_the_key(self, monkeypatch):
        """The re-entrant case reaches its goal only through a state
        whose pointers an earlier, dead branch already had, with
        another owner: a key of pointers alone prunes it."""
        events, first_at, second_at = \
            BACKTRACKING["reentrant-lock-owner-by-order"]
        schedule = assert_same(events, first_at, second_at)
        assert [(step.tid, step.op) for step in schedule.steps] == [
            (2, "lock"), (2, "lock"), (2, "unlock"), (3, "lock"),
            (2, "unlock"), (3, "sem_post"), (0, "sem_wait"),
            (0, "lock"), (0, "unlock"), (0, "write"), (1, "read"),
        ]
        monkeypatch.setattr(witness._Search, "key",
                            lambda search: tuple(search.ptr))
        assert WitnessPlanner(events, tail=None).search(
            first_at, second_at) is None

    def test_thread_forked_twice(self):
        """A thread forked by two threads waits for the fork of the
        thread that appears first in the stream, not the earlier
        fork."""
        events = [
            read(1, 50, Y), sync(0, "fork", 2), sync(1, "fork", 2),
            write(2, 1), read(0, 2),
        ]
        schedule = assert_same(events, 3, 4)
        assert [(step.tid, step.op) for step in schedule.steps] == [
            (0, "fork"), (1, "read"), (1, "fork"), (2, "write"),
            (0, "read"),
        ]

    def test_infeasible_pair(self):
        """Each thread holds the lock across its access: no schedule."""
        events = [
            sync(0, "lock", LOCK), write(0, 1),
            sync(1, "lock", LOCK), read(1, 2),
        ]
        for max_nodes in BUDGETS:
            schedule, expected, nodes, expected_nodes = planned(
                events, 1, 3, max_nodes)
            assert schedule is None and expected is None
            assert nodes == expected_nodes


#: Sync kinds of the random streams' single sync events, and the
#: targets each draws from.
SYNC_KINDS = (
    "lock", "unlock", "sem_post", "sem_wait", "cond_signal", "cond_wake",
    "rwlock_rd", "rwlock_wr", "rwlock_unlock", "barrier_arrive",
    "barrier_wait", "fork", "join",
)
TARGETS = (LOCK, LOCK + 8, SEM, BARRIER)


@st.composite
def blocks(draw, tid, threads, kinds):
    """A few events of thread *tid*, of one of *kinds*: an access (0),
    a critical section (1), a lock taken for good (2), an rwlock
    section (3), a semaphore or condvar post (4) or wait (5), a barrier
    generation (6), a fork (7), a join (8), or a single sync event of
    any kind on any target (9: re-entrant locks, foreign unlocks)."""
    lock = draw(st.sampled_from((LOCK, LOCK + 8)))
    inner = ([draw(st.sampled_from((read, write)))(tid, 20 + tid, Y)]
             if draw(st.booleans()) else [])
    kind = draw(st.sampled_from(kinds))
    if kind == 0:
        return [draw(st.sampled_from((read, write)))(
            tid, draw(st.integers(10, 13)), draw(st.sampled_from((X, Y))))]
    if kind == 1:
        return [sync(tid, "lock", lock), *inner, sync(tid, "unlock", lock)]
    if kind == 2:
        return [sync(tid, "lock", lock)]
    if kind == 3:
        acquire = draw(st.sampled_from(("rwlock_rd", "rwlock_wr")))
        return [sync(tid, acquire, RWLOCK), *inner,
                sync(tid, "rwlock_unlock", RWLOCK)]
    if kind == 4:
        return [sync(tid, draw(st.sampled_from(("sem_post", "cond_signal"))),
                     SEM)]
    if kind == 5:
        return [sync(tid, draw(st.sampled_from(("sem_wait", "cond_wake"))),
                     SEM)]
    if kind == 6:
        return [sync(tid, "barrier_arrive", BARRIER),
                sync(tid, "barrier_wait", BARRIER)]
    if kind in (7, 8):
        return [sync(tid, "fork" if kind == 7 else "join",
                     draw(st.integers(0, threads)))]
    return [sync(tid, draw(st.sampled_from(SYNC_KINDS)),
                 draw(st.sampled_from(TARGETS)))]


def _runs(event, owner, posts):
    if not isinstance(event, SyncOp):
        return True
    if event.kind == "lock":
        return owner.get(event.target, event.tid) == event.tid
    if event.kind in ("sem_wait", "cond_wake"):
        return posts.get(event.target, 0) > 0
    return True


@st.composite
def streams(draw):
    """A random 2–4-thread stream, each thread's events interleaved at
    random, and a pair of accesses from two of its threads.

    Half the streams hold only accesses and lock sections, the other
    half every sync kind.  About a third of the searches leave the
    first descent for the DFS; most of those find no schedule, so the
    DFS explores every state it can reach."""
    threads = draw(st.integers(2, 4))
    kinds = (0, 1, 2, 3) if draw(st.booleans()) else tuple(range(10))
    programs = [[] for _ in range(threads)]
    for _ in range(draw(st.integers(0, 9))):
        tid = draw(st.integers(0, threads - 1))
        programs[tid].extend(draw(blocks(tid, threads, kinds)))
    tid_a = draw(st.integers(0, threads - 1))
    tid_b = draw(st.sampled_from(
        [tid for tid in range(threads) if tid != tid_a]))
    for tid, access in ((tid_a, write(tid_a, 1)), (tid_b, read(tid_b, 2))):
        at = draw(st.integers(0, len(programs[tid])))
        programs[tid].insert(at, access)
        if draw(st.booleans()):
            # The thread holds a lock across its access.
            programs[tid].insert(at, sync(tid, "lock", LOCK))
    # Interleave as a run would record them where it can: a lock is
    # taken when free, a wait consumes an earlier post.
    events, owner, posts = [], {}, {}
    while any(programs):
        live = [tid for tid in range(threads) if programs[tid]]
        runs = [tid for tid in live
                if _runs(programs[tid][0], owner, posts)]
        event = programs[draw(st.sampled_from(runs or live))].pop(0)
        events.append(event)
        if isinstance(event, SyncOp):
            if event.kind == "lock":
                owner[event.target] = event.tid
            elif event.kind == "unlock":
                owner.pop(event.target, None)
            elif event.kind in ("sem_post", "cond_signal"):
                posts[event.target] = posts.get(event.target, 0) + 1
            elif event.kind in ("sem_wait", "cond_wake"):
                posts[event.target] = posts.get(event.target, 0) - 1
    pair = sorted(index for index, event in enumerate(events)
                  if isinstance(event, Access) and event.ip in (1, 2))
    return events, pair[0], pair[1]


@given(streams(), st.sampled_from(BUDGETS))
@settings(max_examples=400, deadline=None)
def test_random_streams_match_reference(stream, max_nodes):
    events, first_at, second_at = stream
    assert_same(events, first_at, second_at, max_nodes)


def test_planner_reuses_its_index_across_searches():
    """One planner serves several pairs; each search matches a fresh
    reference, and the node totals add up."""
    events = BACKTRACKING["barrier-generations"][0]
    planner = WitnessPlanner(events, tail=None)
    reference = ReferenceWitnessPlanner(events, tail=None)
    pairs = [(12, 13), (6, 12), (6, 10)]
    for first_at, second_at in pairs:
        assert (planner.search(first_at, second_at)
                == reference.search(first_at, second_at))
    assert planner.nodes_total == reference.nodes_total


def test_locate_pair_reads_the_reported_position():
    """The second access is the event at the report's stream position,
    not a later access with the same fields; a position that holds
    another event, lies outside the stream, or is -1 locates nothing."""
    events = [write(0, 1), read(1, 2), write(0, 1), read(1, 2)]
    planner = WitnessPlanner(events, tail=None)

    def report(index, second=read(1, 2)):
        return RaceReport(var=second.var, first_tid=0,
                          first_kind=AccessKind.WRITE, first_ip=1,
                          second=second, index=index)

    assert planner.locate_pair(report(1)) == (0, 1)
    assert planner.locate_pair(report(3)) == (2, 3)
    assert planner.schedule_for(report(1)).total_steps == 2
    for index in (-1, 0, 2, 4):
        assert planner.locate_pair(report(index)) is None
    for second in (read(1, 9), read(1, 2, Y), write(1, 2), read(0, 2)):
        assert planner.locate_pair(report(1, second)) is None
    assert planner.schedule_for(report(-1)) is None
