"""Sweep-API tests."""

from repro.analysis.sweeps import (
    detection_sweep,
    overhead_sweep,
    tracesize_sweep,
)
from repro.pmu import VANILLA_DRIVER
from repro.workloads import PARSEC_WORKLOADS, RACE_BUGS, WorkloadScale

SCALE = WorkloadScale(iterations=20)
SMALL_SET = {name: PARSEC_WORKLOADS[name]
             for name in ("blackscholes", "streamcluster")}


class TestOverheadSweep:
    def test_grid_complete(self):
        result = overhead_sweep(SMALL_SET, SCALE, periods=(10, 1_000))
        assert set(result.cells) == set(SMALL_SET)
        for row in result.cells.values():
            assert set(row) == {10, 1_000}

    def test_overhead_decreases_with_period(self):
        result = overhead_sweep(SMALL_SET, SCALE, periods=(10, 10_000))
        geo = result.geomeans()
        assert geo[10] > geo[10_000]

    def test_vanilla_worse(self):
        # Needs runs long enough that both drivers actually sample (the
        # vanilla driver's fixed-start counter never fires on runs with
        # fewer than `period` events per core).
        scale = WorkloadScale(iterations=200)
        prorace = overhead_sweep(SMALL_SET, scale, periods=(100,))
        vanilla = overhead_sweep(SMALL_SET, scale, periods=(100,),
                                 driver=VANILLA_DRIVER)
        assert vanilla.geomeans()[100] > prorace.geomeans()[100]

    def test_render(self):
        result = overhead_sweep(SMALL_SET, SCALE, periods=(100,))
        text = result.render()
        assert "geomean" in text and "blackscholes" in text


class TestTracesizeSweep:
    def test_rates_positive_and_decreasing(self):
        result = tracesize_sweep(SMALL_SET, SCALE, periods=(10, 10_000))
        for row in result.cells.values():
            assert row[10] > row[10_000] > 0


class TestDetectionSweep:
    def test_matches_table2_shape(self):
        bugs = {"aget-bug2": RACE_BUGS["aget-bug2"],
                "mysql-644": RACE_BUGS["mysql-644"]}
        result = detection_sweep(
            bugs, WorkloadScale(iterations=8), periods=(50,), runs=3
        )
        assert result.cells["aget-bug2"][50] == 3  # pc-relative: always
        totals = result.totals()
        assert totals[50] >= 3
        text = result.render()
        assert "total" in text and "aget-bug2" in text
