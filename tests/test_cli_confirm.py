"""CLI surface of race confirmation: ``repro confirm``, ``repro
detect --confirm`` and the ``server:SEED`` program spec."""

import json

import pytest

from repro.cli import main

from tests.helpers import CLEAN_COUNTER_ASM, RACY_ASM
from tests.test_cli import assert_bad_command_line


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def racy_source(tmp_path):
    path = tmp_path / "racy.s"
    path.write_text(RACY_ASM)
    return str(path)


@pytest.fixture
def clean_source(tmp_path):
    path = tmp_path / "clean.s"
    path.write_text(CLEAN_COUNTER_ASM)
    return str(path)


class TestConfirmCommand:
    def test_confirms_racy_program(self, capsys, racy_source):
        code, out = run_cli(capsys, "confirm", "-", "--source", racy_source,
                            "--period", "2", "--seed", "1")
        assert code == 0
        assert "race confirmation" in out
        assert "confirmed" in out
        assert "every reported race carries a verdict" in out

    def test_clean_program_exits_ok(self, capsys, clean_source):
        code, out = run_cli(capsys, "confirm", "-", "--source", clean_source,
                            "--period", "1", "--seed", "0")
        assert code == 0

    def test_suppressed_schedules_exit_8(self, capsys, racy_source):
        code, out = run_cli(capsys, "confirm", "-", "--source", racy_source,
                            "--period", "2", "--seed", "1",
                            "--suppress-schedules")
        assert code == 8
        assert "inapplicable" in out

    def test_json_output(self, capsys, racy_source):
        code, out = run_cli(capsys, "confirm", "-", "--source", racy_source,
                            "--period", "2", "--seed", "1", "--json")
        assert code == 0
        blob = json.loads(out)
        confirmation = blob["confirmation"]
        assert confirmation["conserves"]
        assert confirmation["races_reported"] == len(
            confirmation["verdicts"]
        )

    def test_server_program_spec(self, capsys):
        code, out = run_cli(capsys, "confirm", "server:1",
                            "--period", "7", "--seed", "1")
        assert code == 0
        assert "confirmed" in out

    def test_bad_server_spec_rejected(self, capsys):
        assert_bad_command_line(
            capsys, ["confirm", "server:banana"],
            "bad generated-server spec 'server:banana'")


class TestDetectConfirm:
    def test_detect_confirm_keeps_race_exit(self, capsys, racy_source):
        """--confirm augments detection: races found and proven still
        exit 1 (the detect contract), with verdicts printed."""
        code, out = run_cli(capsys, "detect", "-", "--source", racy_source,
                            "--period", "2", "--seed", "1", "--confirm")
        assert code == 1
        assert "race confirmation" in out

    def test_detect_confirm_unproven_exits_8(self, capsys, racy_source):
        code, out = run_cli(capsys, "detect", "-", "--source", racy_source,
                            "--period", "2", "--seed", "1", "--confirm",
                            "--suppress-schedules")
        assert code == 8


class TestConfirmSupervision:
    def test_task_timeout_holds_at_one_job(self, capsys, monkeypatch):
        """``--task-timeout`` needs a killable worker, so even at
        ``--jobs 1`` the replays run in one: every replay here sleeps
        past the timeout, none fires, and the command exits 8."""
        import time

        from repro.confirm import service

        real = service._replay_one

        def slow_replay(item):
            time.sleep(1.0)
            return real(item)

        monkeypatch.setattr(service, "_replay_one", slow_replay)
        code = main(["confirm", "server:1", "--seed", "1", "--period", "7",
                     "--jobs", "1", "--task-timeout", "0.2",
                     "--retries", "0", "--confirm-retries", "1"])
        out = capsys.readouterr().out
        assert code == 8
        assert "fired on replay" not in out
