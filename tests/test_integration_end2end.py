"""End-to-end integration: the full ProRace flow on realistic scenarios."""

from repro import (
    OfflinePipeline,
    PRORACE_DRIVER,
    VANILLA_DRIVER,
    assemble,
    estimate_overhead,
    trace_run,
)
from repro.analysis import measure_detection_probability
from repro.workloads import PARSEC_WORKLOADS, RACE_BUGS, WorkloadScale


class TestPublicApiFlow:
    """The README quickstart flow, verified."""

    def test_quickstart(self):
        source = """
.global hits 0
.reserve workbuf 16
main:
    spawn worker, %rbx
    mov $6, %rcx
loop:
    mov hits(%rip), %rax
    add $1, %rax
    mov %rax, hits(%rip)
    dec %rcx
    cmp $0, %rcx
    jne loop
    join %rbx
    halt
worker:
    mov $6, %rcx
wloop:
    mov hits(%rip), %rax
    add $1, %rax
    mov %rax, hits(%rip)
    dec %rcx
    cmp $0, %rcx
    jne wloop
    halt
"""
        program = assemble(source)
        bundle = trace_run(program, period=3, seed=1)
        result = OfflinePipeline(program).analyze(bundle)
        assert result.races
        descriptions = [r.describe() for r in result.races]
        assert any("race on" in d for d in descriptions)

    def test_version_exposed(self):
        import repro

        assert repro.__version__


class TestDetectionProbabilityHarness:
    def test_measures_over_seeds(self):
        bug = RACE_BUGS["aget-bug2"]
        program = bug.build(WorkloadScale(iterations=6))
        probability = measure_detection_probability(
            program,
            racy_addresses=[program.symbols["bwritten"]],
            period=100,
            runs=4,
        )
        assert probability.runs == 4
        assert 0.0 <= probability.probability <= 1.0
        assert probability.probability > 0.5  # pc-relative: near-certain


class TestDriverComparisonFlow:
    def test_prorace_beats_vanilla_on_a_kernel(self):
        program = PARSEC_WORKLOADS["swaptions"].instantiate(
            WorkloadScale(iterations=60)
        )
        results = {}
        for driver in (PRORACE_DRIVER, VANILLA_DRIVER):
            bundle = trace_run(program, period=100, driver=driver, seed=2)
            results[driver.name] = estimate_overhead(bundle).overhead
        assert results["prorace"] < results["vanilla"]


class TestOfflineCostFlow:
    def test_reconstruction_dominates_offline_cost(self):
        """Figure 12: trace reconstruction is the dominant offline phase,
        race detection a tiny sliver."""
        bug = RACE_BUGS["mysql-644"]
        program = bug.build(WorkloadScale(iterations=10))
        bundle = trace_run(program, period=50, seed=3)
        result = OfflinePipeline(program).analyze(bundle)
        breakdown = result.timings.breakdown()
        assert breakdown["trace_reconstruction"] > \
            breakdown["race_detection"]
