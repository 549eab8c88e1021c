"""Deterministic schedule control for race confirmation.

A :class:`ScheduleController` attaches to a :class:`~repro.machine.
machine.Machine` and overrides its seeded scheduler while active: at
every instruction boundary it forces the thread named by the next
unmatched step of a witness schedule, one instruction at a time, until
the whole schedule has been observed in the machine's event stream —
or until the execution diverges from the plan.

After each forced instruction the machine asks :meth:`ScheduleController.
pick_again` whether the same thread goes on; while it does, the machine
keeps stepping it without building a new runnable list, and the
controller charges each instruction to the pending step as
:meth:`~ScheduleController.pick` would.

Steps are matched *tolerantly* against the retirement-time event
stream, because a witness schedule is built from sampled trace events
and names only a subset of what the machine emits:

* a memory-access step matches an access event with the same thread,
  instruction pointer and read/write kind;
* a sync step matches a sync event with the same thread, kind and
  target — regardless of which thread's handler emitted it (blocked
  acquisitions complete inside the releaser's handler).

Unmatched events in between are tolerated up to a per-step instruction
budget; exhausting the budget, or needing a thread that is not
runnable, counts as **divergence**.

The race **fires** when the full schedule is observed and the final
two steps — the racy pair — were matched back-to-back: different
threads touching the same address with no synchronization event
observed in between.

A controller deactivates once it has fired, diverged or run out of
budget, and the machine's run ends at the next instruction boundary.
Everything a verdict reads (``fired``, ``completed``, ``diverged``,
``cursor``, ``observed``) is final at that point.  A fire is final
too: two threads' accesses to one address retired back-to-back with no
synchronization between them, in a legal execution of the program, and
nothing the program does afterwards can undo that.

An optional seeded perturbation (for flaky-interleaving retries)
occasionally yields one slice to a random runnable thread; with the
same seed the perturbation sequence, and hence the whole run, is
deterministic.

The controller duck-types its schedule: any sequence of step objects
with ``tid``/``op``/``detail`` attributes works (the detector's
``WitnessStep`` is the canonical producer), so :mod:`repro.machine`
takes no dependency on :mod:`repro.detector`.

:class:`PairTargetController` is the complementary strategy for
value-dependent executions a recorded schedule cannot drive (spin
loops, retry paths): it lets the machine free-run under its own seeded
scheduler — same seed as the traced run, same data-dependent paths —
parks the first thread that arrives at the second racy instruction,
and the moment the first racy access retires on the racy address it
forces the parked thread to deliver its access back-to-back.  A
properly synchronized pair cannot be forced this way: a thread parked
*at* the access already holds whatever guards the path, so the other
side blocks before its access instead of racing.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple


class ScheduleController:
    """Drives a machine toward one witness interleaving.

    Args:
        steps: the witness schedule — step objects with ``tid`` (thread
            to run), ``op`` (``"read"``/``"write"`` or a sync kind) and
            ``detail`` (instruction pointer for accesses, target
            address for sync).
        perturb_seed: seed of the perturbation RNG.
        perturb_probability: per-slice chance of yielding one slice to
            a random runnable thread (0.0 = drive the exact schedule).
        step_budget: instructions the forced thread may retire without
            matching the pending step before the run counts as
            diverged.
    """

    def __init__(
        self,
        steps: Sequence,
        perturb_seed: int = 0,
        perturb_probability: float = 0.0,
        step_budget: int = 4000,
    ) -> None:
        self.steps = tuple(steps)
        self.perturb_probability = perturb_probability
        self.step_budget = step_budget
        self._rng = random.Random(perturb_seed)
        self.cursor = 0
        self.active = bool(self.steps)
        self.completed = False
        self.diverged = False
        self.fired = False
        #: Matched-event records, for bit-identical determinism checks.
        self.observed: List[Tuple] = []
        self._spent = 0
        self._sync_between = False
        # suffix_tids[i] = threads appearing in steps[i:].  When the
        # desired thread is momentarily not runnable (blocked on
        # simulated IO), a thread with no remaining schedule
        # involvement can run safely — it cannot consume a future step
        # — letting time advance until the desired thread wakes.
        suffix: List[frozenset] = [frozenset()] * (len(self.steps) + 1)
        running: set = set()
        for index in range(len(self.steps) - 1, -1, -1):
            running.add(self.steps[index].tid)
            suffix[index] = frozenset(running)
        self._suffix_tids = suffix

    # -- scheduling hook -------------------------------------------------

    def pick(self, runnable) -> Optional[object]:
        """Choose the next thread to run, or None once the controller
        has deactivated (done or diverged), which ends the run."""
        if not self.active:
            return None
        if self.cursor >= len(self.steps):
            self._deactivate()
            return None
        if self._spent >= self.step_budget:
            self._deactivate(diverged=True)
            return None
        if (
            self.perturb_probability > 0.0
            and len(runnable) > 1
            and self._rng.random() < self.perturb_probability
        ):
            self._spent += 1
            return self._rng.choice(runnable)
        desired = self.steps[self.cursor].tid
        for thread in runnable:
            if thread.tid == desired:
                self._spent += 1
                return thread
        # Desired thread not runnable: let an uninvolved thread run (it
        # cannot consume any future step) so blocked time can pass;
        # with only involved threads runnable, the plan is broken.
        involved = self._suffix_tids[self.cursor]
        bystanders = [t for t in runnable if t.tid not in involved]
        if bystanders:
            self._spent += 1
            return min(bystanders, key=lambda t: t.tid)
        self._deactivate(diverged=True)
        return None

    def pick_again(self, thread) -> bool:
        """Would :meth:`pick` force *thread*, still runnable, again
        without a random draw?  Then charge the instruction to the
        pending step as :meth:`pick` does and return True.  Otherwise
        return False and leave the decision, and any deactivation, to
        :meth:`pick`."""
        if (
            self.active
            and self._spent < self.step_budget
            and self.perturb_probability <= 0.0
            and self.cursor < len(self.steps)
            and self.steps[self.cursor].tid == thread.tid
        ):
            self._spent += 1
            return True
        return False

    # -- event observation -----------------------------------------------

    def observe_access(self, event) -> None:
        """Match one retirement-time memory-access event."""
        if not self.active or self.cursor >= len(self.steps):
            return
        step = self.steps[self.cursor]
        kind = "write" if event.is_store else "read"
        if (
            step.op == kind
            and event.tid == step.tid
            and event.ip == step.detail
        ):
            self._advance(("access", event.tid, kind, event.ip,
                           event.address))

    def observe_sync(self, event) -> None:
        """Match one sync event (any emitting thread: hand-offs count)."""
        if not self.active or self.cursor >= len(self.steps):
            return
        step = self.steps[self.cursor]
        if (
            step.op == event.kind
            and event.tid == step.tid
            and event.target == step.detail
        ):
            self._advance(("sync", event.tid, event.kind, event.target))
        elif self.cursor == len(self.steps) - 1:
            # Synchronization slipped between the racy pair: whatever
            # happens next, the accesses are no longer back-to-back.
            self._sync_between = True

    # -- internals -------------------------------------------------------

    def _advance(self, record: Tuple) -> None:
        self.observed.append(record)
        self.cursor += 1
        self._spent = 0
        if self.cursor == len(self.steps) - 1:
            self._sync_between = False
        if self.cursor >= len(self.steps):
            self.fired = self._pair_fired()
            self._deactivate()

    def _pair_fired(self) -> bool:
        """Did the final pair land back-to-back on one address from two
        threads?"""
        if len(self.observed) < 2 or self._sync_between:
            return False
        first, second = self.observed[-2], self.observed[-1]
        return (
            first[0] == "access"
            and second[0] == "access"
            and first[1] != second[1]
            and first[4] == second[4]
        )

    def _deactivate(self, diverged: bool = False) -> None:
        self.active = False
        self.diverged = diverged
        self.completed = self.cursor >= len(self.steps)


class PairTargetController:
    """Drives a machine to fire one racy pair directly.

    Unlike :class:`ScheduleController` it follows no recorded
    interleaving: the machine free-runs under its own seeded scheduler
    (identical seed → identical value-dependent paths as the traced
    run) while the controller watches for the pair.  The first thread
    whose next instruction is *second_ip* is **parked** (never
    scheduled); once an access at *first_ip* to *address* retires from
    another thread, the parked thread is forced for exactly one slice,
    delivering the second access adjacent to the first.

    Args:
        first_ip: instruction pointer of the access to wait for.
        second_ip: instruction pointer of the access to park and force.
        address: the racy data address both accesses must touch.
        step_budget: scheduling slices without progress (a park, a
            match) before the run counts as diverged.
    """

    def __init__(
        self,
        first_ip: int,
        second_ip: int,
        address: int,
        step_budget: int = 4000,
    ) -> None:
        self.first_ip = first_ip
        self.second_ip = second_ip
        self.address = address
        self.step_budget = step_budget
        self.active = True
        self.completed = False
        self.diverged = False
        self.fired = False
        #: Matched-event records (same shape as ScheduleController's),
        #: for bit-identical determinism checks.
        self.observed: List[Tuple] = []
        self.cursor = 0
        self._spent = 0
        self._parked: Optional[int] = None
        self._first_tid: Optional[int] = None
        self._delivering = False
        self._rr = 0

    # -- scheduling hook -------------------------------------------------

    def pick(self, runnable) -> Optional[object]:
        """Force the parked thread on delivery, exclude it otherwise;
        ``None`` hands the next instruction to the machine's seeded
        scheduler while the controller is active, and ends the run once
        it is not."""
        if not self.active:
            return None
        if self._spent >= self.step_budget:
            self._deactivate(diverged=True)
            return None
        if self._delivering:
            self._spent += 1
            return self._pick_delivery(runnable)
        if self._parked is None:
            for thread in sorted(runnable, key=lambda t: t.tid):
                if thread.ip == self.second_ip:
                    self._parked = thread.tid
                    self._spent = 0
                    break
        if self._parked is None:
            # Nothing to protect: the machine's own seeded scheduler
            # runs, and natural progress costs no budget.
            return None
        self._spent += 1
        others = [t for t in runnable if t.tid != self._parked]
        if not others:
            # The parked thread is the only runnable one; holding it
            # would deadlock the run.  Release it — it may re-park at
            # its next arrival (spin loops come right back).
            self._parked = None
            return None
        # Exclude the parked thread deterministically (round-robin so
        # no bystander starves).
        others.sort(key=lambda t: t.tid)
        self._rr += 1
        return others[self._rr % len(others)]

    def pick_again(self, thread) -> bool:
        """Never: every instruction boundary gets its own :meth:`pick`,
        which may park or release a thread."""
        return False

    def _pick_delivery(self, runnable) -> Optional[object]:
        if self._parked is not None:
            for thread in runnable:
                if thread.tid == self._parked:
                    return thread
            return None  # Parked thread momentarily blocked: wait.
        # First access matched with nobody parked: force the first
        # thread to arrive at the second racy instruction.
        for thread in sorted(runnable, key=lambda t: t.tid):
            if thread.ip == self.second_ip and thread.tid != self._first_tid:
                return thread
        return None

    # -- event observation -----------------------------------------------

    def observe_access(self, event) -> None:
        if not self.active:
            return
        kind = "write" if event.is_store else "read"
        if self._delivering and event.ip == self.second_ip:
            if (
                event.address == self.address
                and event.tid != self._first_tid
                and (self._parked is None or event.tid == self._parked)
            ):
                self.observed.append(
                    ("access", event.tid, kind, event.ip, event.address)
                )
                self.cursor = 2
                self.fired = True
                self.completed = True
                self._deactivate()
            elif self._parked is not None and event.tid == self._parked:
                # The parked thread's access went elsewhere (same ip,
                # different address): this instance was not the racy
                # one.  Start over.
                self._reset_watch()
            return
        if (
            not self._delivering
            and event.ip == self.first_ip
            and event.address == self.address
            and event.tid != self._parked
        ):
            self._first_tid = event.tid
            self._delivering = True
            self.observed.append(
                ("access", event.tid, kind, event.ip, event.address)
            )
            self.cursor = 1
            self._spent = 0

    def observe_sync(self, event) -> None:
        """Synchronization between the matched first access and the
        delivery un-races the pair: go back to watching."""
        if self.active and self._delivering:
            self._reset_watch()

    # -- internals -------------------------------------------------------

    def _reset_watch(self) -> None:
        self._delivering = False
        self._first_tid = None
        self._parked = None
        if self.observed:
            self.observed.pop()
        self.cursor = 0

    def _deactivate(self, diverged: bool = False) -> None:
        self.active = False
        self.diverged = diverged
