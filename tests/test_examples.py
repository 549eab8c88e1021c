"""Smoke tests: the shipped examples must run and make their point."""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "races detected" in out
        assert "balance" in out

    def test_replay_anatomy_matches_paper(self, capsys):
        _load("replay_anatomy").main()
        out = capsys.readouterr().out
        assert "[backward]" in out
        assert "exactly as in the paper" in out

    def test_all_examples_importable(self):
        for path in EXAMPLES.glob("*.py"):
            module = _load(path.stem)
            assert hasattr(module, "main"), path.name
