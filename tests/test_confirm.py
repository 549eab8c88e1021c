"""Race confirmation end-to-end: every report gets a replay-backed
verdict, true races confirm, synchronized pairs never do, and the
whole pass is deterministic (satellite: same seed + same schedules →
bit-identical verdicts across runs and across ``--jobs``)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.confirm import (
    ConfirmConfig,
    RaceVerdict,
    confirm_races,
)
from repro.confirm import service
from repro.detector.events import Access, AccessKind, RaceReport
from repro.detector.registry import backend_names
from repro.detector.witness import WitnessPlanner
from repro.errors import EXIT_OK, EXIT_UNCONFIRMED
from repro.isa import assemble
from repro.machine import Machine, MachineError
from repro.tracing import trace_run
from repro.workloads import (
    GeneratorConfig,
    RACE_BUGS,
    WorkloadScale,
    generate_racy_program,
    generate_server_program,
)

from tests.helpers import (
    CLEAN_COUNTER_ASM,
    RACY_ASM,
    last_position_of,
    retired_at_deactivation,
)

GEN_CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)
#: A generated program every jobs-invariance run includes: 14 replays,
#: enough to spread over both worker processes.
PROCESS_SEED = 11


def detect(program, period=2, seed=0, detectors=("fasttrack",)):
    bundle = trace_run(program, period=period, seed=seed)
    pipeline = OfflinePipeline(program, detectors=detectors)
    result = pipeline.analyze(bundle)
    events, _replay = pipeline.events_for(bundle)
    return result, events


def confirm(program, period=2, seed=0, detectors=("fasttrack",), **cfg):
    result, events = detect(program, period=period, seed=seed,
                            detectors=detectors)
    config = ConfirmConfig(seed=seed, machine_seed=seed, **cfg)
    report = confirm_races(program, result.races, events, config=config)
    return result, report


class TestConfirmsTrueRaces:
    def test_generated_racy_program_confirms(self):
        program, (read_ip, write_ip) = generate_racy_program(7, GEN_CONFIG)
        result, report = confirm(program, seed=7)
        assert result.races
        assert report.conserves
        pair = tuple(sorted((read_ip, write_ip)))
        address = next(r.address for r in result.races if r.pair == pair)
        verdict = next(v for v in report.verdicts
                       if (v.address, v.pair) == (address, pair))
        assert verdict.verdict == "confirmed"
        assert report.exit_code() == EXIT_OK

    def test_table2_bug_confirms(self):
        bug = RACE_BUGS["apache-25520"]
        program = bug.build(WorkloadScale(iterations=8, threads=4))
        result, report = confirm(program, period=2, seed=3)
        assert result.races
        assert report.conserves
        assert report.confirmed == report.races_reported
        assert all(v.fired_on is not None and v.fired_on <= 3
                   for v in report.verdicts)

    def test_server_workload_confirms_injected_race(self):
        program, (read_ip, write_ip) = generate_server_program(1)
        result, report = confirm(program, period=7, seed=1)
        pair = tuple(sorted((read_ip, write_ip)))
        assert pair in {r.pair for r in result.races}
        verdict = next(v for v in report.verdicts if v.pair == pair)
        assert verdict.verdict == "confirmed"
        assert report.exit_code() == EXIT_OK

    @pytest.mark.parametrize("backend", backend_names())
    def test_every_backend_names_its_accesses(self, backend):
        """Each registry backend, as primary, reports every access at
        its stream position, so every report it makes is planned and
        replayed rather than dropped as inapplicable."""
        program, _pair = generate_server_program(1)
        result, report = confirm(program, period=7, seed=1,
                                 detectors=(backend,))
        assert result.races
        assert all(race.index >= 0 for race in result.races)
        assert report.inapplicable == 0
        assert report.confirmed == report.races_reported


class TestPlansTheReportedInstance:
    def test_schedules_end_at_the_reported_access(self):
        """Regression: the planner used to match a report's second
        access by value from the end of the stream, so it planned the
        pair's last occurrence.  apache-25520 as perfbench's
        ``table2-confirm`` traces it at seed 0 (period 1,000, machine
        and sampling seed 0) reports at stream positions 55-58 of
        2,136, and the same pair recurs at 2,109-2,110."""
        program = RACE_BUGS["apache-25520"].build(
            WorkloadScale(iterations=40))
        bundle = trace_run(program, period=1_000, seed=0,
                           machine=Machine(program, seed=0))
        pipeline = OfflinePipeline(program)
        result = pipeline.analyze(bundle)
        events, _replay = pipeline.events_for(bundle)
        planner = WitnessPlanner([event for _key, event in events],
                                 tail=None)
        assert result.races
        for race in result.races:
            assert events[race.index][1] == race.second
            assert planner.locate_pair(race)[1] == race.index
            schedule = planner.schedule_for(race)
            assert schedule.total_steps <= race.index + 1


#: ``RACY_ASM`` whose main faults where it would halt, after joining
#: the worker: one instruction for one, so no ip moves, and every race
#: has run before the fault.
FAULT_AFTER_RACES_ASM = RACY_ASM.replace(
    "    join %rbx\n    halt\n", "    join %rbx\n    mov %rax, $5\n")


class TestReplayEndsAtVerdict:
    def test_no_instruction_retires_after_deactivation(self, monkeypatch):
        """Every replay of apache-25520, as perfbench's
        ``table2-confirm`` traces it at seed 0, stops at the instruction
        boundary where its controller deactivates."""
        program = RACE_BUGS["apache-25520"].build(
            WorkloadScale(iterations=40))
        bundle = trace_run(program, period=1_000, seed=0,
                           machine=Machine(program, seed=0))
        pipeline = OfflinePipeline(program)
        result = pipeline.analyze(bundle)
        events, _replay = pipeline.events_for(bundle)
        runs = []

        class Watched(Machine):
            def run(self, entry="main"):
                retired_at = retired_at_deactivation(self)
                run = super().run(entry)
                runs.append((retired_at, run.instructions))
                return run

        monkeypatch.setattr(service, "Machine", Watched)
        report = confirm_races(program, result.races, events,
                               config=ConfirmConfig(seed=0, machine_seed=0))
        assert report.races_reported and report.conserves
        assert len(runs) == report.replays_total
        for retired_at, retired in runs:
            assert retired_at == [retired]

    def test_a_fire_is_final(self, monkeypatch):
        """A race fires in a legal execution even when the program
        faults later: the replay ends at the fire, before main's
        fault, and the race is confirmed on its exact schedule."""
        assert RACY_ASM.count("    join %rbx\n    halt\n") == 1
        clean = assemble(RACY_ASM)
        faulting = assemble(FAULT_AFTER_RACES_ASM)
        assert len(faulting.instructions) == len(clean.instructions)
        with pytest.raises(MachineError):
            Machine(faulting, seed=0).run()
        result, events = detect(clean, period=3, seed=0)
        assert len(result.races) == 3
        replays = []
        replay_one = service._replay_one

        def recorded(item):
            outcome = replay_one(item)
            replays.append(outcome)
            return outcome

        monkeypatch.setattr(service, "_replay_one", recorded)
        report = confirm_races(faulting, result.races, events,
                               config=ConfirmConfig(seed=0, machine_seed=0))
        assert [v.verdict for v in report.verdicts] == ["confirmed"] * 3
        assert all(v.fired_on == 1 for v in report.verdicts)
        assert len(replays) == 3
        assert all(outcome["fired"] and not outcome["error"]
                   for outcome in replays)


class TestNeverConfirmsSynchronized:
    def test_fabricated_locked_pair_is_not_confirmed(self):
        """Zero false confirms: a hand-forged report naming the two
        mutex-guarded increment instructions must never reach
        ``confirmed`` — the planner finds no feasible schedule and the
        pair targeter cannot break the lock."""
        program = assemble(CLEAN_COUNTER_ASM)
        bundle = trace_run(program, period=1, seed=0)
        pipeline = OfflinePipeline(program)
        assert not pipeline.analyze(bundle).races
        events, _replay = pipeline.events_for(bundle)
        label = program.labels["bump"]
        total = program.symbols["total"]
        plain = [event for _key, event in events]
        second = Access(tid=1, var=(total, 0), kind=AccessKind.WRITE,
                        ip=label + 3, tsc=0.0, provenance="forged")
        # The position of the last real write the forged access names,
        # so the pair is located and the search runs.
        fake = RaceReport(
            var=(total, 0),
            first_tid=0,
            first_kind=AccessKind.READ,
            first_ip=label + 1,
            second=second,
            index=last_position_of(plain, second),
        )
        planner = WitnessPlanner(plain, tail=None)
        assert planner.locate_pair(fake) is not None
        assert planner.schedule_for(fake) is None
        report = confirm_races(program, [fake], events,
                               config=ConfirmConfig(seed=0, machine_seed=0))
        assert report.conserves
        verdict = report.verdicts[0]
        assert verdict.verdict in ("unconfirmed", "inapplicable")
        assert report.exit_code() == EXIT_UNCONFIRMED


class TestPolicy:
    def test_suppressed_schedules_all_inapplicable_exit_8(self):
        program, _ = generate_racy_program(7, GEN_CONFIG)
        result, report = confirm(program, seed=7, suppress_schedules=True)
        assert result.races
        assert report.conserves
        assert report.inapplicable == report.races_reported
        assert report.replays_total == 0
        assert report.exit_code() == EXIT_UNCONFIRMED

    def test_no_races_exit_ok(self):
        program = assemble(CLEAN_COUNTER_ASM)
        _, report = confirm(program, period=1, seed=0)
        assert report.races_reported == 0
        assert report.exit_code() == EXIT_OK

    def test_verdict_tiers_and_labels(self):
        flaky = RaceVerdict(address=0x10, pair=(1, 2), verdict="flaky",
                            attempts=5, successes=2, fired_on=4)
        assert flaky.label == "flaky(2-of-5)"
        assert flaky.fired

    def test_report_dict_round_trip_fields(self):
        program, _ = generate_racy_program(7, GEN_CONFIG)
        _, report = confirm(program, seed=7)
        blob = report.to_dict()
        assert blob["conserves"]
        assert blob["races_reported"] == len(blob["verdicts"])
        counts = blob["counts"]
        assert sum(counts.values()) == blob["races_reported"]


class TestDeterminism:
    """Satellite: confirmation is a pure function of (seed, schedules).

    Same seed → bit-identical verdicts and matched-event digests,
    across repeated runs and across ``--jobs`` values / executors.
    """

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=6, deadline=None)
    def test_repeat_runs_bit_identical(self, seed):
        program, _ = generate_racy_program(seed, GEN_CONFIG)
        _, first = confirm(program, seed=seed)
        _, second = confirm(program, seed=seed)
        assert first.to_dict() == second.to_dict()

    @given(seed=st.integers(min_value=0, max_value=500))
    @example(seed=PROCESS_SEED)
    @settings(max_examples=4, deadline=None)
    def test_jobs_invariance(self, seed):
        """Fan-out width must not leak into verdicts: inline replays
        (one job) and the two worker processes ``repro confirm --jobs 2``
        uses produce identical reports."""
        program, _ = generate_racy_program(seed, GEN_CONFIG)
        result, events = detect(program, seed=seed)
        config = ConfirmConfig(seed=seed, machine_seed=seed)
        serial = confirm_races(program, result.races, events,
                               config=config, jobs=1)
        fanned = confirm_races(program, result.races, events,
                               config=config, jobs=2)
        assert serial.to_dict() == fanned.to_dict()
        if seed == PROCESS_SEED:
            assert serial.replays_total > 1

    def test_digest_stability_pins_event_stream(self):
        """The digest is over the matched-event stream, so two runs
        that fired the same way carry the same digest string."""
        program, _ = generate_racy_program(11, GEN_CONFIG)
        _, first = confirm(program, seed=11)
        _, second = confirm(program, seed=11)
        for a, b in zip(first.verdicts, second.verdicts):
            assert a.digest == b.digest
