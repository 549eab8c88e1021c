"""Documentation consistency: the docs describe the repo that exists."""

import re
from pathlib import Path


ROOT = Path(__file__).parent.parent


class TestDesignIndex:
    def test_every_bench_target_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"`benchmarks/(test_\w+\.py)`", design))
        assert targets, "experiment index lists no bench targets"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_inventory_package_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        packages = set(re.findall(r"`repro\.(\w+)`", design))
        for package in packages:
            assert (ROOT / "src" / "repro" / package).exists() or \
                (ROOT / "src" / "repro" / f"{package}.py").exists(), package


class TestReadme:
    def test_quickstart_code_runs_and_detects(self, capsys):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README has no python quickstart"
        namespace = {}
        exec(blocks[0], namespace)  # noqa: S102 - our own README
        out = capsys.readouterr().out
        assert "race on" in out

    def test_linked_docs_exist(self):
        readme = (ROOT / "README.md").read_text()
        for link in re.findall(r"\]\(([\w/.-]+\.md)\)", readme):
            assert (ROOT / link).exists(), link
        for link in re.findall(r"`(examples/[\w_]+\.py)`", readme):
            assert (ROOT / link).exists(), link

    def test_cli_commands_documented_match_parser(self):
        """README's subcommand list names exactly the parser's
        commands: none missing, none that no longer exists."""
        from repro.cli import build_parser

        readme = (ROOT / "README.md").read_text()
        listing = re.search(
            r"with ((?:``[\w-]+``\s*/\s*)+``[\w-]+``)\s+subcommands",
            readme)
        assert listing, "README has no subcommand list"
        documented = set(re.findall(r"``([\w-]+)``", listing.group(1)))
        parser = build_parser()
        subactions = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        assert documented == set(subactions.choices)

    def test_examples_table_matches_examples_dir(self):
        """README's examples table lists exactly the scripts under
        ``examples/``."""
        readme = (ROOT / "README.md").read_text()
        listed = set(re.findall(r"^\| `(\w+\.py)` \|", readme, re.M))
        assert listed, "README has no examples table"
        present = {path.name for path in (ROOT / "examples").glob("*.py")}
        assert listed == present


class TestExperimentsDoc:
    def test_mentions_every_figure_and_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for item in ("Table 1", "Table 2", "Figure 6", "Figure 7",
                     "Figure 8", "Figure 9", "Figure 10", "Figure 11",
                     "Figure 12"):
            assert item in text, item
