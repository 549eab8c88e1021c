"""Shared witness-schedule planner.

The goal-directed reordering search originally private to the
predictive backend, factored out so *any* race report — FastTrack,
lockset, predictive — can be given a :class:`~repro.detector.events.
WitnessSchedule`: a feasible interleaving of the observed events that
ends with the racy pair scheduled back-to-back.  The confirmation
service (:mod:`repro.confirm`) then drives the machine scheduler along
that schedule to make the race actually fire.

A feasible schedule respects

* per-thread program order,
* lock mutual exclusion (an acquire needs the lock free),
* reader-writer exclusion (a read acquire needs no writer; a write
  acquire needs no writer *and* no readers),
* fork/join (a thread runs only after its fork; a join needs the whole
  child schedule complete),
* semaphore/condvar counting (each wait consumes an earlier post),
* barrier generations (a ``barrier_wait`` needs at least as many
  ``barrier_arrive`` events on its barrier as preceded it in the
  original stream — the arrivals of its generation).

The search is goal-directed: it only schedules events needed to bring
the pair together, explores moves favouring the pair's own threads,
memoizes visited scheduler states, and is bounded per candidate.
Everything is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from .events import (
    Access,
    RaceReport,
    SyncOp,
    WitnessSchedule,
    WitnessStep,
)

#: Witness steps kept on a *report* schedule (the tail that shows the
#: reordering around the pair).  Confirmation plans with ``tail=None``
#: (the full schedule) — a truncated schedule cannot be driven.
WITNESS_TAIL = 32


def step_of(event) -> WitnessStep:
    """The schedule step describing one buffered event."""
    if isinstance(event, SyncOp):
        return WitnessStep(tid=event.tid, op=event.kind, detail=event.target)
    return WitnessStep(tid=event.tid, op=event.kind.value, detail=event.ip)


#: Codes of the flat per-event sync-kind table.  An event coded below
#: ``_LOCK`` is schedulable as soon as its thread reaches it; accesses,
#: and sync kinds the search does not model, are ``_FREE`` and change
#: no state.  A ``rwlock_unlock`` is coded by the mode it releases.
(_FREE, _UNLOCK, _POST, _FORK, _RD_UNLOCK, _WR_UNLOCK, _ARRIVE,
 _LOCK, _WAIT, _JOIN, _RD, _WR, _BARRIER) = range(13)

_CODE_OF_KIND = {
    "unlock": _UNLOCK,
    "sem_post": _POST,
    "cond_signal": _POST,
    "fork": _FORK,
    "barrier_arrive": _ARRIVE,
    "lock": _LOCK,
    "sem_wait": _WAIT,
    "cond_wake": _WAIT,
    "join": _JOIN,
    "rwlock_rd": _RD,
    "rwlock_wr": _WR,
    "barrier_wait": _BARRIER,
}


class WitnessPlanner:
    """Plans witness schedules over one buffered event stream.

    The constructor indexes the stream once for every search: each
    event's thread, sync-kind code and target, each thread's event
    indices in stream order and its forks.  A search then takes each
    thread's horizon by bisection.

    Args:
        events: the merged event stream (:class:`Access`/:class:`SyncOp`
            instances) in happens-before consistent order.
        max_nodes: DFS node budget per candidate pair.
        tail: keep only the last *tail* steps of each schedule
            (reporting mode), or ``None`` for the full schedule
            (confirmation mode).
    """

    def __init__(self, events, max_nodes: int = 20_000,
                 tail: Optional[int] = WITNESS_TAIL) -> None:
        self.events: List[object] = list(events)
        self.max_nodes = max_nodes
        self.tail = tail
        #: DFS nodes explored across all searches so far.
        self.nodes_total = 0
        count = len(self.events)
        self._tids: List[int] = [0] * count
        self._codes: List[int] = [_FREE] * count
        self._targets: List[int] = [0] * count
        #: barrier_wait index → the arrivals of its generation: every
        #: ``barrier_arrive`` on its barrier that preceded it.
        self._quota: Dict[int, int] = {}
        #: tid → its event indices, threads in order of first appearance.
        self._thread_events: Dict[int, List[int]] = {}
        #: tid → indices of the forks it issues.
        self._forks: Dict[int, List[int]] = {}
        #: Each event's schedule step, built the first time a schedule
        #: keeps it.
        self._steps: List[Optional[WitnessStep]] = [None] * count
        held_mode: Dict[Tuple[int, int], int] = {}
        arrives: Dict[int, int] = {}
        for index, event in enumerate(self.events):
            tid = event.tid
            self._tids[index] = tid
            indices = self._thread_events.get(tid)
            if indices is None:
                indices = self._thread_events[tid] = []
            indices.append(index)
            if not isinstance(event, SyncOp):
                continue
            target = event.target
            self._targets[index] = target
            if event.kind == "rwlock_unlock":
                # The mode it releases: its matching acquire's, in
                # program order.
                code = (_RD_UNLOCK
                        if held_mode.pop((tid, target), _WR) == _RD
                        else _WR_UNLOCK)
            else:
                code = _CODE_OF_KIND.get(event.kind, _FREE)
            if code == _RD or code == _WR:
                held_mode[(tid, target)] = code
            elif code == _ARRIVE:
                arrives[target] = arrives.get(target, 0) + 1
            elif code == _BARRIER:
                self._quota[index] = arrives.get(target, 0)
            elif code == _FORK:
                self._forks.setdefault(tid, []).append(index)
            self._codes[index] = code

    # -- pair location ---------------------------------------------------

    def locate_pair(self, report: RaceReport) -> Optional[Tuple[int, int]]:
        """Buffer indices of the report's racy pair, or None.

        The second access is the event at the report's stream position
        (:attr:`RaceReport.index`), which must be an access matching
        ``report.second`` on thread, variable, kind and ip: a report
        from another stream, or fed outside one (index -1), is not
        located.
        """
        second_at = report.index
        if not 0 <= second_at < len(self.events) or report.first_ip is None:
            return None
        second = report.second
        event = self.events[second_at]
        if not (
            isinstance(event, Access)
            and event.tid == second.tid
            and event.var == report.var
            and event.kind == second.kind
            and event.ip == second.ip
        ):
            return None
        # The first access: the latest matching access before the
        # second (exactly the access whose shadow slot triggered the
        # detector's report).
        for index in range(second_at - 1, -1, -1):
            event = self.events[index]
            if (
                isinstance(event, Access)
                and event.tid == report.first_tid
                and event.var == report.var
                and event.kind == report.first_kind
                and event.ip == report.first_ip
            ):
                return (index, second_at)
        return None

    def schedule_for(self, report: RaceReport) -> Optional[WitnessSchedule]:
        """Plan a witness schedule for one report, or None if the pair
        cannot be located or no feasible reordering exists in budget."""
        pair = self.locate_pair(report)
        if pair is None:
            return None
        return self.search(*pair)

    # -- the witness search ----------------------------------------------

    def search(self, first_at: int,
               second_at: int) -> Optional[WitnessSchedule]:
        """Goal-directed DFS for a feasible schedule ending
        ``…, events[first_at], events[second_at]``.

        The DFS takes the first move at every node until it first
        backtracks, which no search over a traced run's stream has
        been seen to do.  So the search walks that first descent
        alone, with no visited set and no move lists, and runs the
        whole DFS (whose first descent is the same walk) only when the
        descent reaches a state with no move.
        """
        walk = _Search(self, first_at, second_at)
        found = walk.descend()
        if found is None:
            walk = _Search(self, first_at, second_at)
            found = walk.dfs()
        self.nodes_total += walk.nodes
        if not found:
            return None
        schedule = walk.schedule
        kept = schedule if self.tail is None else schedule[-self.tail:]
        cache, events = self._steps, self.events
        steps = []
        for index in kept:
            step = cache[index]
            if step is None:
                step = cache[index] = step_of(events[index])
            steps.append(step)
        return WitnessSchedule(
            steps=tuple(steps),
            total_steps=len(schedule),
            nodes_explored=walk.nodes,
        )


class _Search:
    """The scheduler state of one witness search over one pair.

    Each thread's horizon is a prefix of its events: those up to the
    second access, and for the first access's thread those up to the
    first access (events a thread would execute after its side of the
    pair can never be needed, and must never be scheduled before it).
    A thread runs from the start unless a fork inside the horizon
    starts it; a thread whose fork fell outside the horizon is never
    runnable, which is the conservative choice.

    The state is a pointer per thread into its horizon plus lock and
    rwlock-writer owners and semaphore, reader and barrier-arrival
    counts.  The counts, and which forks have run, are sums over the
    scheduled prefix of each thread, so they are functions of the
    pointers: the visited key keeps only the pointers and the owners.
    """

    __slots__ = (
        "planner", "first_at", "second_at", "slot_of", "sequences",
        "lengths", "gates", "park", "move_order", "goal", "ptr",
        "lock_owner", "sem_count", "rw_writer", "rw_readers",
        "arrive_count", "schedule", "nodes",
    )

    def __init__(self, planner: WitnessPlanner, first_at: int,
                 second_at: int) -> None:
        self.planner = planner
        self.first_at = first_at
        self.second_at = second_at
        tids_of = planner._tids
        tid_a, tid_b = tids_of[first_at], tids_of[second_at]
        lengths: Dict[int, int] = {}
        for tid, indices in planner._thread_events.items():
            limit = first_at if tid == tid_a else second_at
            length = bisect_right(indices, limit)
            if length:
                lengths[tid] = length
        # tid → the fork that starts it: the first inside the horizon,
        # threads taken in order of first appearance.
        fork_of: Dict[int, int] = {}
        targets = planner._targets
        for tid in lengths:
            limit = first_at if tid == tid_a else second_at
            for index in planner._forks.get(tid, ()):
                if index > limit:
                    break
                if targets[index] in lengths:
                    fork_of.setdefault(targets[index], index)
        tids = sorted(lengths)
        self.slot_of = slot_of = {tid: slot for slot, tid in enumerate(tids)}
        self.sequences = [planner._thread_events[tid] for tid in tids]
        self.lengths = [lengths[tid] for tid in tids]
        #: slot → (forking thread's slot, the fork's position in its
        #: horizon), or None: the thread runs once that slot's pointer
        #: has passed the fork.
        self.gates: List[Optional[Tuple[int, int]]] = []
        for tid in tids:
            fork = fork_of.get(tid)
            if fork is None:
                self.gates.append(None)
            else:
                forker = tids_of[fork]
                self.gates.append((slot_of[forker], bisect_left(
                    planner._thread_events[forker], fork)))
        slot_a, slot_b = slot_of[tid_a], slot_of[tid_b]
        #: slot → the pointer at which the thread is parked right before
        #: its side of the pair (-1: never parks).  The racy accesses are
        #: only ever scheduled by the goal step, so a parked thread
        #: offers no moves.
        self.park = [-1] * len(tids)
        for slot in (slot_a, slot_b):
            self.park[slot] = self.lengths[slot] - 1
        self.move_order = (slot_b, slot_a, *(
            slot for slot in range(len(tids)) if slot not in (slot_a, slot_b)
        ))
        self.goal = (slot_a, self.park[slot_a], slot_b, self.park[slot_b],
                     tuple(self.gates[slot] for slot in (slot_a, slot_b)
                           if self.gates[slot] is not None))
        self.ptr = [0] * len(tids)
        self.lock_owner: Dict[int, int] = {}
        self.sem_count: Dict[int, int] = {}
        self.rw_writer: Dict[int, int] = {}
        self.rw_readers: Dict[int, int] = {}
        self.arrive_count: Dict[int, int] = {}
        self.schedule: List[int] = []
        self.nodes = 1

    # -- the two walks ---------------------------------------------------

    def descend(self) -> Optional[bool]:
        """Walk the DFS's first descent: True at the goal, False when
        the node budget runs out, None at a state with no move (where
        the DFS would backtrack)."""
        if self.at_goal():
            self.reach_goal()
            return True
        ptr, park, move_order = self.ptr, self.park, self.move_order
        enabled, apply = self.enabled, self.apply
        max_nodes = self.planner.max_nodes
        while True:
            for slot in move_order:
                if ptr[slot] != park[slot]:
                    move = enabled(slot)
                    if move is not None:
                        break
            else:
                return None
            apply(move)
            self.nodes += 1
            if self.nodes > max_nodes:
                self.undo(move)
                return False
            if self.at_goal():
                self.reach_goal()
                return True

    def dfs(self) -> bool:
        """The whole goal-directed DFS; True when it reaches the goal.

        Iterative (schedules can be far deeper than the Python
        recursion limit).  Each stack frame is (move that entered the
        state, iterator over the state's moves); popping a frame undoes
        its move.
        """
        if self.at_goal():
            self.reach_goal()
            return True
        max_nodes = self.planner.max_nodes
        visited = {self.key()}
        stack: List[Tuple[Optional[int], object]] = [
            (None, iter(self.moves()))
        ]
        while stack:
            move = next(stack[-1][1], None)
            if move is None:
                entered_by, _ = stack.pop()
                if entered_by is not None:
                    self.undo(entered_by)
                continue
            self.apply(move)
            self.nodes += 1
            if self.nodes > max_nodes:
                self.undo(move)
                return False
            if self.at_goal():
                self.reach_goal()
                return True
            key = self.key()
            if key in visited:
                self.undo(move)
                continue
            visited.add(key)
            stack.append((move, iter(self.moves())))
        return False

    # -- the state -------------------------------------------------------

    def key(self) -> Tuple:
        return (
            tuple(self.ptr),
            tuple(sorted(self.lock_owner.items())),
            tuple(sorted(self.rw_writer.items())),
        )

    def at_goal(self) -> bool:
        """Both threads parked right before their racy access, and
        actually runnable: their forks, if any, are scheduled."""
        slot_a, last_a, slot_b, last_b, gates = self.goal
        ptr = self.ptr
        if ptr[slot_a] != last_a or ptr[slot_b] != last_b:
            return False
        for forker, position in gates:
            if ptr[forker] <= position:
                return False
        return True

    def reach_goal(self) -> None:
        self.apply(self.first_at)
        self.apply(self.second_at)

    def moves(self) -> List[int]:
        """The state's moves: the pair's own threads first, pulled
        toward the goal, then third parties (needed only when a sync
        constraint blocks the pair)."""
        ptr, park, enabled = self.ptr, self.park, self.enabled
        moves = []
        for slot in self.move_order:
            if ptr[slot] != park[slot]:
                move = enabled(slot)
                if move is not None:
                    moves.append(move)
        return moves

    def enabled(self, slot: int) -> Optional[int]:
        """The thread's next schedulable event index, or None."""
        ptr = self.ptr
        at = ptr[slot]
        if at >= self.lengths[slot]:
            return None
        gate = self.gates[slot]
        if gate is not None and ptr[gate[0]] <= gate[1]:
            return None
        index = self.sequences[slot][at]
        planner = self.planner
        code = planner._codes[index]
        if code < _LOCK:
            return index
        target = planner._targets[index]
        if code == _LOCK:
            owner = self.lock_owner.get(target)
            free = owner is None or owner == planner._tids[index]
        elif code == _WAIT:
            free = self.sem_count.get(target, 0) > 0
        elif code == _JOIN:
            child = self.slot_of.get(target)
            free = child is None or ptr[child] >= self.lengths[child]
        elif code == _RD:
            free = self.rw_writer.get(target) is None
        elif code == _WR:
            free = (self.rw_writer.get(target) is None
                    and self.rw_readers.get(target, 0) == 0)
        else:  # _BARRIER
            free = (self.arrive_count.get(target, 0)
                    >= planner._quota[index])
        return index if free else None

    def apply(self, index: int) -> None:
        planner = self.planner
        tid = planner._tids[index]
        self.ptr[self.slot_of[tid]] += 1
        self.schedule.append(index)
        code = planner._codes[index]
        if code == _FREE:
            return
        target = planner._targets[index]
        if code == _LOCK:
            self.lock_owner[target] = tid
        elif code == _UNLOCK:
            self.lock_owner.pop(target, None)
        elif code == _POST:
            self.sem_count[target] = self.sem_count.get(target, 0) + 1
        elif code == _WAIT:
            self.sem_count[target] -= 1
        elif code == _RD:
            self.rw_readers[target] = self.rw_readers.get(target, 0) + 1
        elif code == _WR:
            self.rw_writer[target] = tid
        elif code == _WR_UNLOCK:
            self.rw_writer.pop(target, None)
        elif code == _RD_UNLOCK:
            self.rw_readers[target] -= 1
        elif code == _ARRIVE:
            self.arrive_count[target] = self.arrive_count.get(target, 0) + 1

    def undo(self, index: int) -> None:
        # Reverses apply() as the DFS always has.  An owner that a
        # re-entrant acquire overwrote is not brought back, and undoing
        # a release by a thread that did not hold the lock makes that
        # thread the owner; a traced stream has neither pattern.
        planner = self.planner
        tid = planner._tids[index]
        self.ptr[self.slot_of[tid]] -= 1
        self.schedule.pop()
        code = planner._codes[index]
        if code == _FREE:
            return
        target = planner._targets[index]
        if code == _LOCK:
            self.lock_owner.pop(target, None)
        elif code == _UNLOCK:
            self.lock_owner[target] = tid
        elif code == _POST:
            self.sem_count[target] -= 1
        elif code == _WAIT:
            self.sem_count[target] = self.sem_count.get(target, 0) + 1
        elif code == _RD:
            self.rw_readers[target] -= 1
        elif code == _WR:
            self.rw_writer.pop(target, None)
        elif code == _WR_UNLOCK:
            self.rw_writer[target] = tid
        elif code == _RD_UNLOCK:
            self.rw_readers[target] = self.rw_readers.get(target, 0) + 1
        elif code == _ARRIVE:
            self.arrive_count[target] -= 1
