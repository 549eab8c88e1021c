"""The PEBS countdown the run loop keeps, against the per-access engine.

The machine decrements each PEBS engine's per-core counters inline and
calls the engine only when one overflows.  ``ReferencePEBSEngine``
(``tests/helpers.py``) is the engine as it was when the machine handed
it every retired access.  Most tests here trace one program and
schedule with each engine and assert that the trace bytes, the samples
with their registers, the driver accounting and the governor report are
the same; the others pin what the counting engine must not do: ask the
load-burst plan at every access, or read a counter once it is stalled
or disabled.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import LoadBurstPlan
from repro.isa import assemble
from repro.machine import Machine, MachineObserver
from repro.pmu import PEBSConfig, PEBSEngine, PRORACE_DRIVER, VANILLA_DRIVER
from repro.pmu.governor import GovernorConfig
from repro.tracing import trace_run, trace_to_bytes
from repro.workloads import RACE_BUGS, WorkloadScale, generate_racy_program

from tests.helpers import (
    CLEAN_COUNTER_ASM,
    ReferencePEBSEngine,
    reference_trace_run,
)

#: The machine goldens' scale: a few thousand accesses per program.
SCALE = WorkloadScale(iterations=8, threads=2, data_words=8, io_cycles=50)
DRIVERS = {"prorace": PRORACE_DRIVER, "vanilla": VANILLA_DRIVER}
#: Short bursts, so that burst boundaries fall inside countdowns even
#: at period 1,000.
SHORT_BURSTS = dict(burst_ticks=40, gap_ticks=90)


@pytest.fixture(scope="module")
def table2():
    return {name: bug.build(SCALE) for name, bug in RACE_BUGS.items()}


@pytest.fixture(scope="module")
def long_program():
    """A Table 2 program long enough for a governor to act on."""
    return RACE_BUGS["pbzip2-0.9.4"].build(
        WorkloadScale(iterations=50, threads=4))


def assert_same(program, **kwargs):
    """Trace *program* with the counting engine and with the reference
    engine (``trace_run``'s arguments); assert that they agree and
    return the counting engine's bundle."""
    ours = trace_run(program, **kwargs)
    ref = reference_trace_run(program, **kwargs)
    assert trace_to_bytes(ours) == trace_to_bytes(ref)
    assert ours.samples == ref.samples
    assert vars(ours.pebs_accounting) == vars(ref.pebs_accounting)
    assert ours.governor == ref.governor
    assert ours.run == ref.run
    if ours.ground_truth is not None:
        assert ours.ground_truth.accesses == ref.ground_truth.accesses
    return ours


def burst_boundaries(plan, end_tsc):
    """Every TSC up to *end_tsc* at which *plan*'s weight changes."""
    boundaries = set()
    for cycle in range(end_tsc // plan.cycle_ticks + 1):
        boundaries.update(plan.burst_range(cycle))
    return boundaries


def boundary_inside_countdown(samples, boundaries) -> bool:
    """Whether a burst boundary falls strictly between two consecutive
    samples of one core, that is, inside one countdown."""
    by_core = {}
    for sample in samples:
        by_core.setdefault(sample.core, []).append(sample.tsc)
    for tscs in by_core.values():
        tscs.sort()
        for before, after in zip(tscs, tscs[1:]):
            if any(before < b < after for b in boundaries):
                return True
    return False


class TestTable2Corpus:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize("period", [1, 13, 1_000])
    @pytest.mark.parametrize("name", sorted(RACE_BUGS))
    def test_same_trace(self, table2, name, period, driver):
        bundle = assert_same(table2[name], period=period, seed=3,
                             driver=DRIVERS[driver],
                             record_ground_truth=period == 13)
        if period <= 13:
            assert bundle.pebs_accounting.samples_taken

    @pytest.mark.parametrize("loads, stores", [(True, False), (False, True)])
    @pytest.mark.parametrize("period", [1, 13])
    @pytest.mark.parametrize("name", ["apache-25520", "mysql-644", "pfscan"])
    def test_one_kind_monitored(self, table2, name, period, loads, stores):
        config = PEBSConfig(period=period, monitor_loads=loads,
                            monitor_stores=stores)
        bundle = assert_same(table2[name], period=period, seed=0,
                             pebs_config=config)
        assert bundle.samples
        assert all(sample.is_store == stores for sample in bundle.samples)


class TestTwoEngines:
    PERIODS = {"fine": (2, 2), "coarse": (10, 3)}  # name: (period, seed)

    @staticmethod
    def _run(order, make):
        """Run CLEAN_COUNTER_ASM with two engines attached in *order*;
        ``make(machine, period, seed)`` builds each."""
        machine = Machine(assemble(CLEAN_COUNTER_ASM), seed=1)
        engines = {name: make(machine, period, seed)
                   for name, (period, seed) in TestTwoEngines.PERIODS.items()}
        for name in order:
            machine.attach(engines[name])
        machine.run()
        return engines

    @pytest.mark.parametrize("order", [("fine", "coarse"),
                                       ("coarse", "fine")])
    def test_two_counting_engines(self, order):
        ours = self._run(order, lambda machine, period, seed: PEBSEngine(
            PEBSConfig(period=period), seed=seed))
        ref = self._run(order, lambda machine, period, seed:
                        ReferencePEBSEngine(PEBSConfig(period=period),
                                            seed=seed,
                                            threads=machine.threads))
        for name in order:
            assert ours[name].samples, name
            assert ours[name].samples == ref[name].samples
            assert vars(ours[name].accounting) == vars(ref[name].accounting)

    @pytest.mark.parametrize("counting_first", [True, False])
    def test_counting_beside_reference(self, counting_first):
        """A counting engine and a reference engine with one configuration
        on one machine, in either order, take the same samples."""
        machine = Machine(assemble(CLEAN_COUNTER_ASM), seed=1)
        ours = PEBSEngine(PEBSConfig(period=3), seed=4)
        ref = ReferencePEBSEngine(PEBSConfig(period=3), seed=4,
                                  threads=machine.threads)
        for engine in ((ours, ref) if counting_first else (ref, ours)):
            machine.attach(engine)
        machine.run()
        assert ours.samples
        assert ours.samples == ref.samples
        assert vars(ours.accounting) == vars(ref.accounting)


@given(seed=st.integers(min_value=0, max_value=1_000),
       multiplier=st.integers(min_value=1, max_value=32),
       burst_ticks=st.integers(min_value=1, max_value=50),
       gap_ticks=st.integers(min_value=0, max_value=120),
       jitter=st.sampled_from([0.0, 0.5, 1.0]),
       tsc=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_segment_holds_weight(seed, multiplier, burst_ticks, gap_ticks,
                              jitter, tsc):
    """``segment(tsc)`` is ``weight`` over the TSCs it covers, and it ends
    within the cycle it starts in."""
    plan = LoadBurstPlan(seed=seed, multiplier=multiplier,
                         burst_ticks=burst_ticks, gap_ticks=gap_ticks,
                         jitter=jitter)
    weight, until = plan.segment(tsc)
    assert tsc < until <= (tsc // plan.cycle_ticks + 1) * plan.cycle_ticks
    assert all(plan.weight(t) == weight for t in range(tsc, until))


class TestLoadBursts:
    @pytest.mark.parametrize("period", [13, 1_000])
    @pytest.mark.parametrize("multiplier", [2, 16])
    def test_burst_boundary_inside_a_countdown(self, long_program,
                                               multiplier, period):
        plan = LoadBurstPlan(seed=5, multiplier=multiplier, **SHORT_BURSTS)
        bundle = assert_same(long_program, period=period, seed=0,
                             load_bursts=plan)
        boundaries = burst_boundaries(plan, bundle.run.tsc)
        assert boundary_inside_countdown(bundle.samples, boundaries)

    def test_weights_refresh_only_at_boundaries(self, long_program):
        """The run loop asks the plan for a weight once per burst segment
        it enters, never once per access."""
        plan = LoadBurstPlan(seed=5, multiplier=16, **SHORT_BURSTS)
        with mock.patch.object(LoadBurstPlan, "segment", autospec=True,
                               side_effect=LoadBurstPlan.segment) as segment, \
                mock.patch.object(LoadBurstPlan, "weight",
                                  side_effect=AssertionError):
            bundle = trace_run(long_program, period=13, seed=0,
                               load_bursts=plan)
        asked = [call.args[1] for call in segment.call_args_list]
        assert asked == sorted(asked)
        segments = [plan.segment(tsc) for tsc in asked]
        # Each call starts a new segment: at or after the previous end.
        for (_weight, until), tsc in zip(segments, asked[1:]):
            assert tsc >= until
        # A cycle has at most three segments: before, in and after its
        # burst.
        cycles = bundle.run.tsc // plan.cycle_ticks + 1
        assert len(asked) <= 3 * cycles
        assert len(asked) < bundle.run.memory_ops // 10


class TestStallAndDisable:
    STALL_AT = 3_000

    @pytest.mark.parametrize("multiplier", [1, 8])
    def test_stall_matches_reference(self, long_program, multiplier):
        plan = LoadBurstPlan(seed=0, multiplier=multiplier,
                             stall_pebs_at=self.STALL_AT)
        bundle = assert_same(long_program, period=13, seed=0,
                             load_bursts=plan)
        assert bundle.run.tsc > self.STALL_AT
        assert bundle.samples
        assert max(s.tsc for s in bundle.samples) < self.STALL_AT

    def test_stalled_engine_reads_no_counter(self, long_program):
        machine = Machine(long_program, seed=0)
        engine = PEBSEngine(PEBSConfig(period=13), seed=1)
        engine.stall_at = self.STALL_AT
        engine.counters = watched = WatchedCounters(machine)
        machine.attach(engine)
        result = machine.run()
        assert result.tsc > self.STALL_AT
        assert watched.reads
        assert max(watched.reads) < self.STALL_AT
        assert max(s.tsc for s in engine.samples) < self.STALL_AT

    def test_disabled_engine_records_nothing(self, long_program):
        """An engine disabled mid-run, as the governor's watchdog does it,
        samples nothing and reads no counter from then on, like the
        reference engine."""
        runs = []
        for reference in (False, True):
            machine = Machine(long_program, seed=0)
            config = PEBSConfig(period=13)
            engine = (ReferencePEBSEngine(config, seed=1,
                                          threads=machine.threads)
                      if reference else PEBSEngine(config, seed=1))
            engine.counters = watched = WatchedCounters(machine)
            disabler = Disabler(engine, at=self.STALL_AT)
            machine.attach(engine)
            machine.attach(disabler)
            result = machine.run()
            assert result.tsc > disabler.tripped >= self.STALL_AT
            assert max(watched.reads) <= disabler.tripped
            assert max(s.tsc for s in engine.samples) <= disabler.tripped
            runs.append((engine.samples, vars(engine.accounting)))
        assert runs[0] == runs[1]


class WatchedCounters(dict):
    """Per-core counters that log the machine's TSC at every read."""

    def __init__(self, machine) -> None:
        super().__init__()
        self.machine = machine
        self.reads = []

    def __getitem__(self, core):
        self.reads.append(self.machine.tsc)
        return super().__getitem__(core)


class Disabler(MachineObserver):
    """Disables *engine* at the first access at or after TSC *at*, as the
    governor's watchdog does."""

    def __init__(self, engine, at: int) -> None:
        self.engine = engine
        self.at = at
        self.tripped = None

    def on_memory_access(self, event) -> None:
        if self.tripped is None and event.tsc >= self.at:
            self.engine.disabled = True
            self.tripped = event.tsc


class TestGoverned:
    def test_period_retuned(self, long_program):
        bundle = assert_same(
            long_program, period=2, seed=0, record_ground_truth=True,
            governor=GovernorConfig(overhead_budget=0.02, k_max=16384),
            load_bursts=LoadBurstPlan(seed=0, multiplier=16),
        )
        assert bundle.governor.widenings > 0
        assert bundle.governor.final_period > 2

    def test_period_narrowed(self, long_program):
        """A governor allowed below the base period narrows it."""
        bundle = assert_same(
            long_program, period=50, seed=1,
            governor=GovernorConfig(overhead_budget=0.5, k_min=4,
                                    decision_ticks=100),
        )
        assert bundle.governor.narrowings > 0

    def test_watchdog_trips(self, long_program):
        bundle = assert_same(
            long_program, period=100, seed=0,
            governor=GovernorConfig(overhead_budget=0.5),
            load_bursts=LoadBurstPlan(seed=0, stall_pebs_at=3_000),
        )
        assert bundle.governor.watchdog_trips == 1
        assert bundle.governor.final_period == 0

    @pytest.mark.parametrize("name", ["apache-25520", "pbzip2-0.9.4"])
    def test_governed_table2(self, table2, name):
        assert_same(table2[name], period=2, seed=3,
                    governor=GovernorConfig(decision_ticks=50),
                    load_bursts=LoadBurstPlan(seed=3, multiplier=16,
                                              **SHORT_BURSTS))


@given(seed=st.integers(min_value=0, max_value=10_000),
       period=st.sampled_from([1, 2, 7, 13, 100]),
       driver=st.sampled_from(sorted(DRIVERS)),
       kinds=st.sampled_from([(True, True), (True, False), (False, True)]),
       multiplier=st.sampled_from([None, 2, 16]),
       num_cores=st.sampled_from([1, 2, 4]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_programs(seed, period, driver, kinds, multiplier,
                            num_cores):
    """Fewer cores than threads share a counter between threads."""
    program, _pair = generate_racy_program(seed)
    plan = (None if multiplier is None else
            LoadBurstPlan(seed=seed, multiplier=multiplier, **SHORT_BURSTS))
    config = PEBSConfig(period=period, monitor_loads=kinds[0],
                        monitor_stores=kinds[1])
    assert_same(program, period=period, seed=seed, driver=DRIVERS[driver],
                pebs_config=config, load_bursts=plan, num_cores=num_cores)
