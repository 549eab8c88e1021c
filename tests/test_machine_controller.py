"""Schedule controllers: driving a Machine to a chosen interleaving.

Two controllers, two strategies:

* :class:`ScheduleController` replays a planner-produced
  :class:`WitnessSchedule` step by step, tolerating bystander slices,
  and reports ``fired`` only when the full schedule matched and the
  racy pair executed back-to-back with no sync between;
* :class:`PairTargetController` free-runs under the machine's own
  seeded scheduler, parks the first thread that reaches one racy
  instruction, and delivers the other access adjacent to it — the
  fallback for value-dependent executions a recorded schedule cannot
  drive.

The soundness property both must uphold: a properly synchronized pair
can NEVER be made to fire (the parked thread holds its guards, so the
other side blocks before its access).
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.analysis import OfflinePipeline
from repro.detector.events import WitnessStep
from repro.detector.witness import WitnessPlanner
from repro.isa import assemble
from repro.machine import Machine, PairTargetController, ScheduleController
from repro.machine.threads import ThreadStatus
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import CLEAN_COUNTER_ASM, RACY_ASM, last_position_of


def detect(program, period=1, seed=0):
    bundle = trace_run(program, period=period, seed=seed)
    pipeline = OfflinePipeline(program)
    result = pipeline.analyze(bundle)
    events, _replay = pipeline.events_for(bundle)
    plain = [item[1] if isinstance(item, tuple) else item
             for item in events]
    return result, plain


def plan(program, period=1, seed=0):
    """First reported race and its full witness schedule."""
    result, plain = detect(program, period=period, seed=seed)
    assert result.races
    report = result.races[0]
    planner = WitnessPlanner(plain, max_nodes=20_000, tail=None)
    schedule = planner.schedule_for(report)
    assert schedule is not None and not schedule.truncated
    return report, schedule


class TestScheduleController:
    def test_replays_witness_and_fires(self):
        program = assemble(RACY_ASM)
        report, schedule = plan(program)
        controller = ScheduleController(schedule.steps)
        Machine(program, num_cores=4, seed=0, controller=controller).run()
        assert controller.completed
        assert controller.fired
        assert not controller.diverged
        assert controller.cursor == len(schedule.steps)

    def test_determinism_bit_identical_observations(self):
        program = assemble(RACY_ASM)
        _, schedule = plan(program)
        streams = []
        for _ in range(3):
            controller = ScheduleController(schedule.steps)
            Machine(program, num_cores=4, seed=0,
                    controller=controller).run()
            streams.append(repr(controller.observed))
        assert streams[0] == streams[1] == streams[2]

    def test_impossible_schedule_diverges_and_machine_finishes(self):
        """A schedule naming instructions the program never reaches
        deactivates the controller, and the run ends there without
        an error."""
        from dataclasses import replace

        program = assemble(RACY_ASM)
        _, schedule = plan(program)
        bogus = [replace(step, detail=9999) for step in schedule.steps]
        controller = ScheduleController(bogus, step_budget=200)
        machine = Machine(program, num_cores=4, seed=0,
                          controller=controller)
        machine.run()
        assert controller.diverged
        assert not controller.fired


class TestPairTargetController:
    def _racy_ips(self, program):
        result, _ = detect(program)
        report = result.races[0]
        first, second = report.pair
        return first, second, report.address

    @pytest.mark.parametrize("seed", range(4))
    def test_forces_racy_pair_adjacent(self, seed):
        program = assemble(RACY_ASM)
        first, second, address = self._racy_ips(program)
        controller = PairTargetController(first, second, address)
        Machine(program, num_cores=4, seed=seed,
                controller=controller).run()
        assert controller.fired
        last_two = controller.observed[-2:]
        tid_a, tid_b = last_two[0][1], last_two[1][1]
        assert tid_a != tid_b

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_synchronized_pair_never_fires(self, seed, order):
        """Soundness: on the lock-protected counter, targeting the two
        increment instructions can never produce an adjacent unsynced
        pair — the parked thread holds the mutex."""
        program = assemble(CLEAN_COUNTER_ASM)
        # The load and store inside bump() race-lookalike across
        # threads but are mutex-guarded.
        label = program.labels["bump"]
        load_ip, store_ip = label + 1, label + 3
        total = program.symbols["total"]
        if order == "reversed":
            load_ip, store_ip = store_ip, load_ip
        controller = PairTargetController(load_ip, store_ip, total,
                                          step_budget=2000)
        Machine(program, num_cores=4, seed=seed,
                controller=controller).run()
        assert not controller.fired

    def test_budget_exhaustion_deactivates(self):
        program = assemble(RACY_ASM)
        first, second, address = self._racy_ips(program)
        controller = PairTargetController(first, second, address,
                                          step_budget=1)
        machine = Machine(program, num_cores=4, seed=0,
                          controller=controller)
        machine.run()
        # Either it fired immediately (budget spent on the winning
        # slice) or it gave up; it must not wedge the machine.
        assert not controller.active

    def test_machine_result_unaffected_after_deactivation(self):
        """Once the controller fires the run ends, with the counter
        written as a controller-free run writes it."""
        program = assemble(RACY_ASM)
        first, second, address = self._racy_ips(program)
        controller = PairTargetController(first, second, address)
        driven = Machine(program, num_cores=4, seed=0,
                         controller=controller)
        driven.run()
        free = Machine(program, num_cores=4, seed=0)
        free.run()
        racy = program.symbols["racy"]
        # Both runs leave the counter written (the exact value is
        # schedule-dependent — that is the race).
        assert driven.memory.load(racy) != 0
        assert free.memory.load(racy) != 0


    def test_unfired_pair_target_watches_to_the_end(self):
        """A pair that never occurs never deactivates the targeter, so
        it watches every boundary until the program ends."""
        program = assemble(RACY_ASM)
        first, second, _address = self._racy_ips(program)
        untouched = program.symbols["lockvar"]
        controller = PairTargetController(first, second, untouched)
        machine = Machine(program, num_cores=4, seed=0,
                          controller=controller)
        machine.run()
        assert controller.active and not controller.fired
        assert all(thread.status is ThreadStatus.DONE
                   for thread in machine.threads.values())


class OnePickPerInstruction(ScheduleController):
    """The reference run loop: the machine asks :meth:`pick` at every
    instruction boundary, with a new runnable list each time."""

    def pick_again(self, thread):
        return False


class CountingPicks(ScheduleController):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.picks = 0

    def pick(self, runnable):
        self.picks += 1
        return super().pick(runnable)


def run_under(program, controller, seed=0):
    """Everything a replay under *controller* shows: the tid of every
    retired instruction, the controller's outcome and the RunResult."""
    machine = Machine(program, num_cores=4, seed=seed, controller=controller)
    tids = []
    step = machine._step

    def counted(thread):
        tids.append(thread.tid)
        step(thread)

    machine._step = counted
    result = machine.run()
    return (tids, controller.observed, controller.cursor, controller.fired,
            controller.diverged, controller.completed, result)


def assert_bursts_match(program, steps, seed=0, **options):
    """The machine running forced threads in bursts retires the same
    instructions, in the same order, as one pick per instruction."""
    burst = CountingPicks(steps, **options)
    shown = run_under(program, burst, seed)
    assert shown == run_under(program, OnePickPerInstruction(steps,
                                                             **options),
                              seed)
    return shown, burst.picks


#: The machine goldens' Table 2 scale and period.
TABLE2_SCALE = WorkloadScale(iterations=8, threads=2, data_words=8,
                             io_cycles=50)


@lru_cache(maxsize=None)
def table2_schedules():
    """Every Table 2 bug traced at seed 0, with two witness schedules of
    each distinct race it reports: one ending at the reported instance
    of the pair, and one ending at its last occurrence in the stream.
    The short ones fire or miss; only the long ones, which run the
    whole trace, diverge."""
    plans = []
    for name, bug in sorted(RACE_BUGS.items()):
        program = bug.build(TABLE2_SCALE)
        bundle = trace_run(program, period=13, seed=0)
        pipeline = OfflinePipeline(program)
        result = pipeline.analyze(bundle)
        events, _replay = pipeline.events_for(bundle)
        plain = [event for _, event in events]
        planner = WitnessPlanner(plain, tail=None)
        seen = set()
        for report in result.races:
            if (report.address, report.pair) in seen:
                continue
            seen.add((report.address, report.pair))
            last = last_position_of(plain, report.second)
            for index in sorted({report.index, last}):
                schedule = planner.schedule_for(replace(report, index=index))
                if schedule is not None:
                    plans.append((name, program, schedule.steps))
    return plans


#: A worker the schedule forces while main holds the lock it takes
#: first, and again across an IO wait; main and a spinning thread are
#: bystanders while it waits.
HANDOFF_ASM = """
.global lk 0
.global shared 0
.global out 0
.global spin 0
main:
    spawn worker, %rbx
    spawn spinner, %r12
    lock $lk
    mov $1, %rax
    mov %rax, shared(%rip)
    io $30
    unlock $lk
    join %rbx
    join %r12
    halt
worker:
    lock $lk
    mov shared(%rip), %rax
    unlock $lk
    io $20
    mov %rax, out(%rip)
    halt
spinner:
    mov $40, %rcx
sloop:
    mov %rcx, spin(%rip)
    dec %rcx
    cmp $0, %rcx
    jne sloop
    halt
"""


def handoff_steps(program, *, main_again=False):
    worker = program.labels["worker"]
    steps = [
        WitnessStep(tid=0, op="lock", detail=program.symbols["lk"]),
        WitnessStep(tid=1, op="read", detail=worker + 1),
        WitnessStep(tid=1, op="write", detail=worker + 4),
    ]
    if main_again:
        # Main is involved until the end, so only the spinner may run
        # while the worker is blocked.
        steps.append(WitnessStep(tid=0, op="join", detail=1))
    return steps


class TestBursts:
    """Forced threads run in bursts: a run is the same as one
    :meth:`~ScheduleController.pick` per instruction."""

    def test_table2_witness_schedules(self):
        plans = table2_schedules()
        assert len(plans) >= 12
        outcomes = set()
        for name, program, steps in plans:
            (tids, _observed, cursor, fired, diverged, completed,
             result), picks = assert_bursts_match(program, steps)
            assert len(tids) == result.instructions
            # Most forced instructions are the same thread again.
            assert picks < result.instructions / 2, name
            outcomes.add((fired, diverged, completed))
        # The schedules fire, miss and diverge.
        assert (True, False, True) in outcomes
        assert (False, False, True) in outcomes
        assert (False, True, False) in outcomes

    def test_perturbed_schedule(self):
        name, program, steps = table2_schedules()[0]
        for seed in range(3):
            assert_bursts_match(program, steps, seed=seed,
                                perturb_seed=seed, perturb_probability=0.15)

    @pytest.mark.parametrize("budget", [1, 2, 3, 7])
    def test_budget_runs_out_mid_stretch(self, budget):
        name, program, steps = table2_schedules()[0]
        shown, _picks = assert_bursts_match(program, steps,
                                            step_budget=budget)
        assert shown[4], "the stretch should outrun the budget"

    def test_forced_thread_blocks_on_lock_and_io(self):
        """The worker blocks on main's lock at its first forced
        instruction and on IO right after its read matched; main and
        the spinner run as bystanders meanwhile."""
        program = assemble(HANDOFF_ASM)
        shown, _picks = assert_bursts_match(program, handoff_steps(program))
        tids, observed, cursor, fired, diverged, completed, result = shown
        assert completed and not diverged and cursor == 3
        read_at = tids.index(1, tids.index(1) + 1)
        write_at = tids.index(1, read_at + 3)
        assert tids[read_at:read_at + 3] == [1, 1, 1]  # read, unlock, io
        assert set(tids[read_at + 3:write_at]) == {0, 2}

    def test_only_uninvolved_threads_are_bystanders(self):
        """With main still in the schedule, only the spinner may run
        while the worker waits for main's lock: the run diverges once
        the spinner is done."""
        program = assemble(HANDOFF_ASM)
        shown, _picks = assert_bursts_match(
            program, handoff_steps(program, main_again=True))
        tids, observed, cursor, fired, diverged, completed, result = shown
        assert diverged and cursor == 1
        spun = result.per_thread_retired[2]
        assert tids[:4 + spun] == [0, 0, 0, 1] + [2] * spun

    def test_budget_runs_out_while_forced_thread_blocks(self):
        """Main's two bystander instructions after the worker blocked
        spend the rest of a budget of 3."""
        program = assemble(HANDOFF_ASM)
        shown, _picks = assert_bursts_match(
            program, handoff_steps(program), step_budget=3)
        tids, observed, cursor, fired, diverged, completed, result = shown
        assert diverged and cursor == 1

    def test_pair_targeting_keeps_one_pick_per_instruction(self):
        program = assemble(RACY_ASM)
        result, _ = detect(program)
        report = result.races[0]
        controller = PairTargetController(*report.pair, report.address)
        assert not controller.pick_again(None)
