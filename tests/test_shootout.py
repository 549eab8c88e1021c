"""Precision/recall shoot-out harness tests."""

import json

import pytest

from repro.analysis import BackendScore, run_shootout
from repro.analysis.shootout import grade_pairs
from repro.workloads import RACE_BUGS, WorkloadScale

SCALE = WorkloadScale(iterations=8, threads=4)


class TestGrading:
    def test_grade_pairs(self):
        targets = frozenset({10, 11})
        tp, fp, detected = grade_pairs([(10, 11), (10, 12)], targets)
        assert (tp, fp, detected) == (1, 1, True)

    def test_grade_pairs_empty(self):
        assert grade_pairs([], frozenset({10})) == (0, 0, False)

    def test_precision_degenerates_to_one_when_silent(self):
        score = BackendScore(name="quiet", kind="backend", trials=4)
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_f1(self):
        score = BackendScore(name="x", kind="backend", true_positives=2,
                             false_positives=2, detections=2, trials=2)
        assert score.precision == 0.5
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(2 / 3)


class TestHarness:
    @pytest.fixture(scope="class")
    def result(self):
        bugs = {name: RACE_BUGS[name] for name in ("pfscan", "mysql-791")}
        return run_shootout(
            bugs, SCALE, period=100, runs=2,
            detectors=("fasttrack", "o1", "lockset"),
            baselines=("datacollider",),
        )

    def test_all_contenders_scored(self, result):
        assert set(result.scores) == {"fasttrack", "o1", "lockset",
                                      "datacollider"}
        for score in result.scores.values():
            assert score.trials == 4  # 2 bugs x 2 runs

    def test_fasttrack_wins_or_ties(self, result):
        ranked = result.ranked()
        fasttrack = result.scores["fasttrack"]
        assert ranked[0].f1 == pytest.approx(
            max(score.f1 for score in result.scores.values())
        )
        # HB over reconstructed traces beats a 4-watchpoint sampler.
        assert fasttrack.f1 >= result.scores["datacollider"].f1

    def test_lockset_never_more_precise_than_fasttrack(self, result):
        assert (result.scores["lockset"].precision
                <= result.scores["fasttrack"].precision)

    def test_render_is_ranked_table(self, result):
        text = result.render()
        assert "shootout: 2 bugs x 2 runs" in text
        assert "fasttrack" in text and "datacollider" in text
        # Rank column starts at 1.
        assert text.splitlines()[3].lstrip().startswith("1")

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "BENCH_detectors.json"
        result.write_json(path)
        payload = json.loads(path.read_text())
        assert payload["bugs"] == ["pfscan", "mysql-791"]
        assert payload["runs"] == 2
        names = [row["name"] for row in payload["ranked"]]
        assert set(names) == set(result.scores)
        f1s = [row["f1"] for row in payload["ranked"]]
        assert f1s == sorted(f1s, reverse=True)

    def test_deterministic(self, result):
        bugs = {name: RACE_BUGS[name] for name in ("pfscan", "mysql-791")}
        again = run_shootout(
            bugs, SCALE, period=100, runs=2,
            detectors=("fasttrack", "o1", "lockset"),
            baselines=("datacollider",),
        )
        for name, score in result.scores.items():
            other = again.scores[name]
            assert (score.true_positives, score.false_positives,
                    score.detections) == (
                other.true_positives, other.false_positives,
                other.detections,
            )


class TestValidation:
    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            run_shootout({"pfscan": RACE_BUGS["pfscan"]}, SCALE,
                         baselines=("tsan",))

    def test_unknown_detector_rejected(self):
        from repro.errors import UnknownDetectorError

        with pytest.raises(UnknownDetectorError):
            run_shootout({"pfscan": RACE_BUGS["pfscan"]}, SCALE,
                         detectors=("fastrack",))
