"""CLI tests (driven in-process via repro.cli.main)."""

import json

import pytest

from repro.cli import main

from tests.helpers import RACY_ASM


@pytest.fixture
def racy_source(tmp_path):
    path = tmp_path / "racy.s"
    path.write_text(RACY_ASM)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_bad_command_line(capsys, argv, message):
    """*argv* is rejected with argparse's exit code 2 (1 means races
    reported) and *message* on stderr."""
    with pytest.raises(SystemExit) as raised:
        main(list(argv))
    assert raised.value.code == 2
    assert message in capsys.readouterr().err


class TestUnknownSubcommand:
    """A mistyped command exits 2, as argparse does, with a
    did-you-mean that argparse's own error lacks."""

    def test_did_you_mean(self, capsys):
        assert main(["anlyze"]) == 2
        assert "did you mean 'analyze'" in capsys.readouterr().err

    def test_no_suggestion_for_gibberish(self, capsys):
        assert main(["zzzzqqq"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        assert "did you mean" not in err

    def test_flags_still_reach_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["--definitely-not-a-flag"])


class TestWorkloads:
    def test_lists_everything(self, capsys):
        code, out = run_cli(capsys, "workloads")
        assert code == 0
        assert "blackscholes" in out
        assert "apache-21287" in out
        assert "pc relative" in out


class TestRun:
    def test_runs_catalogued_workload(self, capsys):
        code, out = run_cli(capsys, "run", "swaptions", "--iterations", "5")
        assert code == 0
        assert "instructions" in out

    def test_runs_source_file(self, capsys, racy_source):
        code, out = run_cli(capsys, "run", "-", "--source", racy_source)
        assert code == 0

    def test_unknown_program(self, capsys):
        assert_bad_command_line(capsys, ["run", "nonsense"],
                                "unknown program 'nonsense'")


class TestTraceAnalyze:
    def test_trace_then_analyze(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        code, out = run_cli(
            capsys, "trace", "-", "--source", racy_source,
            "--period", "5", "-o", trace_path, "--seed", "3",
        )
        assert code == 0
        assert "wrote" in out
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path
        )
        assert code == 1  # races found → nonzero exit
        assert "data race on" in out
        assert "racy" in out

    def test_analyze_json(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--json",
        )
        payload = json.loads(out)
        assert payload["races"]
        assert "run_ledger" not in payload


class TestAnalyzeErrors:
    def test_missing_trace_file(self, capsys, racy_source):
        code = main(["analyze", "-", "--source", racy_source,
                     "/no/such/file.prtr"])
        captured = capsys.readouterr()
        assert code == 2
        assert "trace file not found" in captured.err
        assert captured.err.count("\n") == 1

    def test_unreadable_trace(self, capsys, racy_source, tmp_path):
        bad = tmp_path / "bad.prtr"
        bad.write_bytes(b"garbage bytes, not a trace")
        code = main(["analyze", "-", "--source", racy_source, str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unreadable trace" in captured.err
        assert captured.err.count("\n") == 1

    def test_allow_partial_salvages(self, capsys, racy_source, tmp_path):
        from repro.faults import corrupt_trace_file

        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        corrupt_trace_file(trace_path, seed=1, section_index=1)  # pebs
        # Strict read refuses...
        code = main(["analyze", "-", "--source", racy_source, trace_path])
        assert code == 2
        capsys.readouterr()
        # ...salvage mode analyzes what survived.
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--allow-partial",
        )
        assert code in (0, 1)
        assert "degraded inputs" in out


class TestChaos:
    def test_smoke_sweep(self, capsys):
        code, out = run_cli(
            capsys, "chaos", "aget-bug2", "--runs", "2", "--seed", "7",
            "--intensities", "0.1", "--iterations", "8",
        )
        assert code == 0
        assert "baseline detection" in out
        for name in ("pebs-overflow", "pt-gap", "crash-truncation",
                     "tsc-jitter", "combined"):
            assert name in out
        assert "chaos sweep complete" in out

    def test_plan_subset(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "chaos", "-", "--source", racy_source,
            "--runs", "2", "--plans", "pt-gap",
            "--intensities", "0.1,0.2",
        )
        assert code == 0
        assert "pt-gap" in out
        assert "pebs-overflow" not in out

    def test_worker_kills_are_retried(self, capsys):
        """Killed workers are retried and the sweep still completes."""
        code, _ = run_cli(
            capsys, "chaos", "aget-bug2", "--runs", "2", "--jobs", "2",
            "--iterations", "8", "--kill-workers", "0.4", "--retries", "2",
        )
        assert code == 0

    def test_help_lists_worker_fault_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--help"])
        out = capsys.readouterr().out
        for flag in ("--kill-workers", "--hang-workers", "--fail-workers",
                     "--fault-attempts", "--hang-seconds"):
            assert flag in out

    def test_unknown_plan(self, capsys, racy_source):
        assert_bad_command_line(
            capsys, ["chaos", "-", "--source", racy_source,
                     "--plans", "nonsense"],
            "unknown fault plans ['nonsense']")


class TestSupervisedExitCodes:
    """The documented exit-code taxonomy: 2 = bad input (covered by
    TestAnalyzeErrors) or an unclassified crash, 3 = deadline,
    4 = quarantine, 5 = usage bug — each distinct so a job scheduler
    can requeue/quarantine/discard without parsing messages, and none
    of them 1, "races reported"."""

    def test_crash_exits_2_with_traceback(self, capsys, tmp_path):
        """A program that unlocks a mutex it never locked makes the
        machine raise SyncError, which is no ReproError."""
        source = tmp_path / "bad.s"
        source.write_text(
            ".global lockvar 0\nmain:\n    unlock $lockvar\n    halt\n")
        assert main(["detect", "bad", "--source", str(source)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "SyncError" in err

    def test_failing_trial_exits_4_with_ledger(self, capsys, monkeypatch):
        """A fan-out with no supervision flag runs each trial once: one
        failing trial quarantines, and the ledger goes to stderr."""
        from repro import cli

        real = cli._detect_one

        def fails_on_second_seed(work):
            if work[4] == 1:
                raise RuntimeError("trial exploded")
            return real(work)

        monkeypatch.setattr(cli, "_detect_one", fails_on_second_seed)
        code = main(["detect", "aget-bug2", "--runs", "2", "--jobs", "2",
                     "--iterations", "8"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "run ledger: 2 items, 2 attempts" in captured.err
        assert "quarantined items: [1]" in captured.err
        assert "RuntimeError: trial exploded" in captured.err

    def test_deadline_exits_3(self, capsys):
        code = main([
            "sweep", "detection", "--target", "aget-bug2",
            "--periods", "100", "--runs", "2", "--iterations", "8",
            "--deadline", "0",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "deadline" in captured.err

    def test_quarantine_exits_4(self, capsys):
        # Every attempt of every trial raises: the retry budget drains
        # and the items land in quarantine.
        code = main([
            "chaos", "aget-bug2", "--iterations", "8", "--runs", "2",
            "--period", "100", "--fail-workers", "1.0",
            "--retries", "1", "--fault-attempts", "99",
        ])
        captured = capsys.readouterr()
        assert code == 4
        assert "quarantined" in captured.err

    def test_usage_error_exits_5(self, capsys, monkeypatch):
        """A UsageError that escapes a command exits 5 with its message
        on stderr (a bad command line exits 2 before any command runs)."""
        from repro import cli
        from repro.errors import UsageError

        def misused(args):
            raise UsageError("API used out of order")

        monkeypatch.setitem(cli._COMMANDS, "workloads", misused)
        assert main(["workloads"]) == 5
        assert "repro workloads: API used out of order" in \
            capsys.readouterr().err

    def test_chaos_needs_known_bug(self, capsys):
        assert_bad_command_line(
            capsys, ["chaos", "swaptions", "--kill-workers", "0.5"],
            "repro chaos: worker-fault mode needs a race bug name")

    def test_resume_requires_checkpoint_dir(self, capsys):
        message = "repro: --resume requires --checkpoint-dir"
        assert_bad_command_line(capsys, [
            "sweep", "detection", "--target", "aget-bug2",
            "--periods", "100", "--runs", "2", "--iterations", "8",
            "--resume",
        ], message)
        assert_bad_command_line(
            capsys, ["analyze", "aget-bug2", "/no/such/file.prtr",
                     "--resume"], message)

    def test_analyze_takes_only_checkpoint_flags(self, capsys):
        """One analysis runs in-process: ``analyze`` keeps the §5.1
        snapshot flags and none of the supervision or fan-out ones."""
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        out = capsys.readouterr().out
        assert "--checkpoint-dir" in out and "--resume" in out
        for flag in ("--jobs", "--retries", "--task-timeout", "--deadline"):
            assert flag not in out


class TestSweepCheckpointResume:
    def test_resume_bit_identical(self, capsys, tmp_path):
        args = [
            "sweep", "detection", "--target", "aget-bug2",
            "--periods", "100", "--runs", "2", "--iterations", "8",
            "--json",
        ]
        code, baseline = run_cli(capsys, *args)
        assert code == 0
        checkpoint = str(tmp_path / "ck")
        code, _ = run_cli(capsys, *args, "--checkpoint-dir", checkpoint)
        assert code == 0
        code, resumed = run_cli(capsys, *args, "--checkpoint-dir",
                                checkpoint, "--resume")
        assert code == 0
        base, res = json.loads(baseline), json.loads(resumed)
        # The deterministic payload is identical to the unsupervised
        # run; the ledger records that nothing was recomputed.
        assert base["cells"] == res["cells"]
        assert base["totals"] == res["totals"]
        assert res["run_ledger"]["resumed"] == 2
        assert res["run_ledger"]["attempts"] == 0


class TestDetect:
    def test_single_run_report(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "detect", "-", "--source", racy_source,
            "--period", "5", "--seed", "2",
        )
        assert code == 1
        assert "ProRace report" in out

    def test_single_run_ignores_supervision_flags(self, capsys,
                                                  racy_source):
        """One analysis is not supervised: a single run says so and
        finishes instead of honouring an exhausted deadline."""
        code = main([
            "detect", "-", "--source", racy_source, "--period", "5",
            "--seed", "2", "--deadline", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "ignoring them for one run" in captured.err

    def test_fleet_summary(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "detect", "-", "--source", racy_source,
            "--period", "5", "--runs", "3",
        )
        assert code == 1
        assert "fleet summary" in out
        assert "/3 runs" in out

    def test_clean_program_exits_zero(self, capsys):
        code, out = run_cli(
            capsys, "detect", "blackscholes", "--iterations", "5",
            "--period", "5",
        )
        assert code == 0
        assert "no data races detected" in out


class TestOverhead:
    def test_sweep(self, capsys):
        code, out = run_cli(
            capsys, "overhead", "swaptions", "--iterations", "20",
            "--periods", "100,10000",
        )
        assert code == 0
        assert "prorace" in out and "vanilla" in out
        assert out.count("%") >= 4


class TestSweep:
    def test_detection_sweep_single_bug(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "detection", "--target", "aget-bug2",
            "--periods", "100", "--runs", "2", "--iterations", "8",
        )
        assert code == 0
        assert "aget-bug2" in out and "total" in out

    def test_overhead_sweep_single_workload(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "overhead", "--target", "swaptions",
            "--periods", "100,10000", "--iterations", "20",
        )
        assert code == 0
        assert "geomean" in out

    def test_unknown_sweep_target(self, capsys):
        assert_bad_command_line(
            capsys, ["sweep", "overhead", "--target", "nope"],
            "unknown workload 'nope'")


class TestJitFlags:
    def _trace(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        return trace_path

    def test_profile_writes_pstats(self, capsys, racy_source, tmp_path):
        import pstats

        trace_path = self._trace(capsys, racy_source, tmp_path)
        profile_path = str(tmp_path / "analyze.pstats")
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--profile", profile_path,
        )
        assert code == 1  # profiling must not change the verdict
        stats = pstats.Stats(profile_path)
        assert stats.total_calls > 0

    def test_detect_profile_writes_pstats(self, capsys, racy_source,
                                          tmp_path):
        import pstats

        profile_path = str(tmp_path / "detect.pstats")
        code, out = run_cli(
            capsys, "detect", "-", "--source", racy_source, "--period", "5",
            "--seed", "3", "--jobs", "2", "--profile", profile_path,
        )
        assert code == 1
        assert pstats.Stats(profile_path).total_calls > 0


class TestGovernorFlags:
    def test_trace_governed_prints_summary(self, capsys, tmp_path):
        trace_path = str(tmp_path / "gov.prtr")
        code, out = run_cli(
            capsys, "trace", "pbzip2-0.9.4", "--iterations", "50",
            "--period", "2", "--governor", "--overhead-budget", "0.02",
            "--k-max", "16384", "--load-bursts", "16",
            "-o", trace_path, "--seed", "1",
        )
        assert code == 0
        assert "governor" in out
        assert "wrote" in out

    def test_ungoverned_trace_has_no_governor_line(self, capsys,
                                                   racy_source, tmp_path):
        trace_path = str(tmp_path / "plain.prtr")
        code, out = run_cli(
            capsys, "trace", "-", "--source", racy_source,
            "--period", "5", "-o", trace_path,
        )
        assert code == 0
        assert "governor" not in out

    def test_watchdog_degraded_trace_exits_6(self, capsys, tmp_path):
        """A stalled PEBS engine degrades the run to sync-only tracing:
        the trace file is still written, but the exit code tells a fleet
        scheduler to score it lower (exit code 6)."""
        trace_path = str(tmp_path / "stalled.prtr")
        code, out = run_cli(
            capsys, "trace", "pbzip2-0.9.4", "--iterations", "50",
            "--period", "100", "--governor", "--overhead-budget", "0.5",
            "--stall-pebs-at", "3000", "-o", trace_path,
        )
        assert code == 6
        assert "watchdog" in out.lower()
        # The degraded trace is still loadable and analyzable.
        code, _ = run_cli(
            capsys, "analyze", "pbzip2-0.9.4", "--iterations", "50",
            trace_path,
        )
        assert code in (0, 1)


class TestChaosLoadBursts:
    def test_json_contract(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "chaos", "-", "--source", racy_source,
            "--load-bursts", "8", "--period", "2", "--runs", "2",
            "--governor", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "load-bursts"
        summary = payload["summary"]
        for key in ("governed_detections", "fixed_detections",
                    "budget_respected", "throttle_tripped",
                    "governed_beats_fixed"):
            assert key in summary
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert row["governed"]["governor"]["budget"] == 0.02
            assert "within_budget" in row["governed"]["governor"]
            assert "governor" not in row["fixed"]

    def test_text_table(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "chaos", "-", "--source", racy_source,
            "--load-bursts", "8", "--period", "2", "--runs", "2",
        )
        assert code == 0
        assert "load-burst chaos" in out
        assert "detections:" in out


class TestDetectorSelection:
    def test_unknown_detector_exits_2_with_suggestion(self, capsys,
                                                      racy_source):
        code = main(["detect", "-", "--source", racy_source,
                     "--period", "5", "--detector", "fastrack"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown detector 'fastrack'" in err
        assert "did you mean 'fasttrack'" in err
        assert "available:" in err

    def test_unknown_detector_on_sweep(self, capsys):
        code = main(["sweep", "detection", "--target", "pfscan",
                     "--iterations", "5", "--runs", "1",
                     "--periods", "100", "--detector", "locksets"])
        err = capsys.readouterr().err
        assert code == 2
        assert "did you mean 'lockset'" in err

    def test_default_report_has_no_backend_sections(self, capsys,
                                                    racy_source):
        code, out = run_cli(capsys, "detect", "-", "--source", racy_source,
                            "--period", "5", "--seed", "3")
        assert code == 1
        assert "detectors:" not in out
        assert "--- backend" not in out

    def test_multi_backend_report_sections(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "detect", "-", "--source", racy_source,
            "--period", "5", "--seed", "3",
            "--detector", "fasttrack,lockset", "--detector", "o1",
        )
        assert code == 1
        assert "detectors: fasttrack, lockset, o1 (primary: fasttrack)" \
            in out
        assert "--- backend lockset:" in out
        assert "--- backend o1:" in out

    def test_multi_backend_json(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--json", "--detector", "fasttrack,predict",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["detectors"] == ["fasttrack", "predict"]
        backends = payload["backends"]
        assert set(backends) == {"fasttrack", "predict"}
        predict = backends["predict"]
        assert "candidates" in predict["details"]
        # Witnessed races carry their schedule.
        for race in predict["races"]:
            assert race["witness"] is not None


class TestShootout:
    def test_smoke_two_backends(self, capsys, tmp_path):
        out_path = str(tmp_path / "BENCH_detectors.json")
        code, out = run_cli(
            capsys, "shootout", "--bugs", "pfscan,aget-bug2",
            "--iterations", "8", "--runs", "1",
            "--detector", "fasttrack,o1", "--baselines", "datacollider",
            "-o", out_path,
        )
        assert code == 0
        assert "shootout: 2 bugs x 1 runs" in out
        assert "fasttrack" in out
        payload = json.loads(open(out_path).read())
        names = {row["name"] for row in payload["ranked"]}
        assert names == {"fasttrack", "o1", "datacollider"}

    def test_unknown_bug_rejected(self, capsys):
        assert_bad_command_line(capsys, ["shootout", "--bugs", "nonsense"],
                                "unknown race bugs ['nonsense']")

    def test_unknown_detector_exits_2(self, capsys):
        code = main(["shootout", "--bugs", "pfscan", "--iterations", "5",
                     "--detector", "fastrack"])
        err = capsys.readouterr().err
        assert code == 2
        assert "did you mean 'fasttrack'" in err
