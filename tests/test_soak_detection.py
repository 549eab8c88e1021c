"""Soak test: Table 2's statistical structure over many seeded runs.

Heavier than a unit test but still fast thanks to the machine's slice
scheduler (~20 runs/second): aggregates detection probabilities per
addressing class the way the paper's 100-trace methodology does, and
checks the relationships that should hold with statistical headroom.
"""

from repro.analysis import OfflinePipeline, wilson_interval
from repro.tracing import trace_run
from repro.workloads import (
    MEMORY_INDIRECT,
    PC_RELATIVE,
    RACE_BUGS,
    REGISTER_INDIRECT,
    WorkloadScale,
)

RUNS = 20
SCALE = WorkloadScale(iterations=25)

#: One representative per addressing class.
REPRESENTATIVES = {
    PC_RELATIVE: "pfscan",
    REGISTER_INDIRECT: "cherokee-0.9.2",
    MEMORY_INDIRECT: "mysql-3596",
}


def _probability(bug_name, period, mode="full"):
    bug = RACE_BUGS[bug_name]
    program = bug.build(SCALE)
    pipeline = OfflinePipeline(program, mode=mode)
    hits = 0
    for seed in range(RUNS):
        bundle = trace_run(program, period=period, seed=seed)
        hits += bug.detected(program, pipeline.analyze(bundle))
    return hits


class TestStatisticalStructure:
    def test_pc_relative_certain_at_every_period(self):
        for period in (100, 2_000, 50_000):
            hits = _probability(REPRESENTATIVES[PC_RELATIVE], period)
            assert hits == RUNS, period

    def test_probability_decays_with_period(self):
        name = REPRESENTATIVES[REGISTER_INDIRECT]
        dense = _probability(name, 100)
        sparse = _probability(name, 20_000)
        assert dense > sparse

    def test_classes_separate_at_sparse_sampling(self):
        """With almost no samples, only the PT-recoverable class
        survives; the context-needing classes collapse together."""
        period = 50_000
        pc = _probability(REPRESENTATIVES[PC_RELATIVE], period)
        reg = _probability(REPRESENTATIVES[REGISTER_INDIRECT], period)
        mem = _probability(REPRESENTATIVES[MEMORY_INDIRECT], period)
        assert pc > reg and pc > mem

    def test_full_mode_confidently_beats_racez(self):
        """The Wilson intervals of ProRace's and RaceZ's detection
        probabilities must not overlap at a mid period — the Table 2
        separation is statistically solid, not a point-estimate fluke."""
        name = REPRESENTATIVES[REGISTER_INDIRECT]
        period = 400
        prorace = _probability(name, period, mode="full")
        racez = _probability(name, period, mode="basicblock")
        prorace_low, _ = wilson_interval(prorace, RUNS)
        _, racez_high = wilson_interval(racez, RUNS)
        assert prorace_low > racez_high, (prorace, racez)
