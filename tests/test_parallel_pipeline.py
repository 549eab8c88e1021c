"""Parallel offline analysis across traces: jobs>1 must be
verdict-identical (§7.6)."""

from repro.analysis import detection_sweep, measure_detection_probability
from repro.workloads import RACE_BUGS, WorkloadScale


class TestParallelSweeps:
    """Trial-level fan-out: bit-identical grids in every configuration."""

    BUGS = {"aget-bug2": RACE_BUGS["aget-bug2"]}
    SCALE = WorkloadScale(iterations=8)

    def test_detection_sweep_jobs_identical(self):
        serial = detection_sweep(self.BUGS, self.SCALE,
                                 periods=[200, 1000], runs=3, jobs=1)
        fanned = detection_sweep(self.BUGS, self.SCALE,
                                 periods=[200, 1000], runs=3, jobs=4)
        assert serial.cells == fanned.cells
        assert serial.totals() == fanned.totals()

    def test_detection_probability_jobs_identical(self, racy_program):
        racy = [racy_program.symbols["racy"]]
        serial = measure_detection_probability(
            racy_program, racy, period=3, runs=4, jobs=1)
        fanned = measure_detection_probability(
            racy_program, racy, period=3, runs=4, jobs=4)
        assert serial.trials == fanned.trials
        assert serial.probability == fanned.probability
