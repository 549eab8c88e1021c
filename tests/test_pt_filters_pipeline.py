"""PT region filtering through the full pipeline: graceful degradation.

§4.2: ProRace configures PT's four address filters to the main
executable; anything outside produces no packets and is invisible
offline.  The pipeline must degrade — losing coverage past the first
filtered branch — without corrupting anything it can still see.
"""

from repro.analysis import OfflinePipeline
from repro.isa import assemble
from repro.pmu import PTConfig
from repro.tracing import trace_run


def traced_with_filter(program, filters, seed=1, period=3):
    return trace_run(
        program, period=period, seed=seed,
        pt_config=PTConfig(filters=filters),
    )


class TestWholeProgramFilter:
    def test_equivalent_to_unfiltered(self, racy_program):
        whole = ((0, len(racy_program)),)
        filtered = traced_with_filter(racy_program, whole)
        unfiltered = trace_run(racy_program, period=3, seed=1)
        result_f = OfflinePipeline(racy_program).analyze(filtered)
        result_u = OfflinePipeline(racy_program).analyze(unfiltered)
        assert result_f.racy_addresses == result_u.racy_addresses


class TestTruncatingFilter:
    def test_analysis_survives_truncation(self, racy_program):
        # Exclude everything: every thread's path stops at its first
        # packet-needing branch.
        bundle = traced_with_filter(racy_program, ((9_000, 9_001),))
        result = OfflinePipeline(racy_program).analyze(bundle)
        # Nothing decodable past the first branches → no races visible,
        # but no crash and no fabricated accesses either.
        for accesses in result.replay.per_thread.values():
            for access in accesses:
                assert 0 <= access.ip < len(racy_program)

    def test_truncated_paths_flagged(self, racy_program):
        bundle = traced_with_filter(racy_program, ((9_000, 9_001),))
        from repro.ptdecode import decode_all

        paths = decode_all(racy_program, bundle.pt_traces,
                           config=bundle.pt_config)
        assert all(not p.complete for p in paths.values())

    def test_partial_region_keeps_prefix_coverage(self):
        source = """
.global a 0
.global b 0
main:
    mov a(%rip), %rax
    mov %rax, a(%rip)
    mov $3, %rcx
loop:
    mov b(%rip), %rdx
    dec %rcx
    cmp $0, %rcx
    jne loop
    halt
"""
        program = assemble(source)
        # Cover only up to (not including) the loop's branch.
        bundle = traced_with_filter(program, ((0, 3),), period=100)
        from repro.ptdecode import decode_all

        paths = decode_all(program, bundle.pt_traces,
                           config=bundle.pt_config)
        path = paths[0]
        assert not path.complete
        # The straight-line prefix is decoded.
        assert path.steps[:3] == [0, 1, 2]
        result = OfflinePipeline(program).analyze(bundle)
        prefix_ips = {a.ip for accs in result.replay.per_thread.values()
                      for a in accs}
        assert {0, 1} <= prefix_ips  # pc-relative prefix recovered
