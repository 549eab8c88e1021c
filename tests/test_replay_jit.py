"""Tests for the compiled replay path's block effect-summary cache.

The micro-op executor itself is pinned by ``tests/test_replay_golden.py``
(goldens recorded against the instruction interpreter it replaced) and
checked against machine ground truth by
``tests/test_property_soundness.py``.  The summary cache on top of it is
pure performance work: it must be *invisible* — bit-identical
``RecoveredAccess`` streams (position, ip, address, kind, provenance,
taint) with and without a cache on every workload, every replay mode,
every fault plan, cold or warm.  These tests are the contract.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.faults import FaultPlan
from repro.isa import SYSTEM_OPS, lowering
from repro.isa.lowering import lowered
from repro.replay import BlockSummaryCache, ReplayEngine
from repro.tracing import trace_run
from repro.workloads import GeneratorConfig, generate_racy_program

CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)


def replay(program, bundle, mode="full", cache=None, poisoned=None):
    engine = ReplayEngine(program, mode=mode, summary_cache=cache,
                          poisoned=poisoned)
    return engine.replay_bundle(bundle)


def assert_cache_invisible(program, bundle, mode="full"):
    """A replay without a cache, a cold one and a warm one through the
    same cache all recover the same accesses."""
    plain = replay(program, bundle, mode=mode)
    cache = BlockSummaryCache()
    cold = replay(program, bundle, mode=mode, cache=cache)
    warm = replay(program, bundle, mode=mode, cache=cache)
    assert cold.per_thread == plain.per_thread
    assert warm.per_thread == plain.per_thread


class TestDifferential:
    @pytest.mark.parametrize("mode", ["full", "forward", "basicblock"])
    @pytest.mark.parametrize("period", [1, 4, 17])
    def test_fixture_programs_bit_identical(self, clean_program,
                                            racy_program, mode, period):
        for program in (clean_program, racy_program):
            bundle = trace_run(program, period=period, seed=3)
            assert_cache_invisible(program, bundle, mode)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           period=st.sampled_from([1, 3, 7, 23]))
    @settings(max_examples=12, deadline=None)
    def test_random_programs_bit_identical(self, seed, period):
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=period, seed=seed)
        assert_cache_invisible(program, bundle)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           plan=st.builds(
               FaultPlan,
               seed=st.integers(min_value=0, max_value=1_000),
               sample_drop=st.floats(0.0, 1.0),
               pt_gap=st.floats(0.0, 1.0),
               log_truncation=st.floats(0.0, 1.0),
               tsc_jitter=st.floats(0.0, 1.0),
           ))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_faulted_bundles_bit_identical(self, seed, plan):
        """Degraded traces (gaps, dropped samples, torn logs) exercise
        segment boundaries and window aborts; cached spans and windows
        must not carry state across any of them."""
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=5, seed=seed)
        degraded, _ = plan.apply(bundle)
        assert_cache_invisible(program, degraded)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_pipeline_jit_is_invisible(self, seed):
        """End to end: the analysis context shares one cache across
        every §5.1 regeneration round; its final round still recovers
        exactly what a cache-free replay under the same poison set
        does."""
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=5, seed=seed)
        pipeline = OfflinePipeline(program)
        result = pipeline.analyze(bundle)
        _bundle, context, _replay = pipeline._analyzed
        plain = replay(program, bundle, poisoned=context._last_poisoned)
        assert result.replay.per_thread == plain.per_thread


class TestSummaryCacheEffectiveness:
    def test_warm_cache_hits_and_stays_identical(self, racy_program):
        bundle = trace_run(racy_program, period=4, seed=2)
        cache = BlockSummaryCache()
        cold = replay(racy_program, bundle, cache=cache)
        assert cache.window_hits == 0
        assert cache.window_stores > 0
        saved_after_cold = cache.steps_saved
        warm = replay(racy_program, bundle, cache=cache)
        assert warm.per_thread == cold.per_thread
        # A repeat replay of the same bundle is served whole windows
        # from the memo and steps (almost) nothing.
        assert cache.window_hits > 0
        assert cache.steps_saved > saved_after_cold
        assert warm.stats.window_hits > 0
        assert warm.stats.executed_steps < cold.stats.executed_steps

    def test_span_layer_hits_within_a_cold_run(self):
        """The span layer pays off inside a single replay: fixed-point
        re-iterations of a window re-enter spans recorded by earlier
        passes (window memo keys never repeat intra-run)."""
        config = GeneratorConfig(threads=2, body_length=24,
                                 loop_iterations=4)
        program, _ = generate_racy_program(2, config)
        bundle = trace_run(program, period=8, seed=2)
        cache = BlockSummaryCache()
        cold = replay(program, bundle, cache=cache)
        assert cache.hits > 0
        assert cold.stats.summary_hits > 0
        assert cold.stats.summary_steps > 0


class TestSummaryCacheInvalidation:
    def test_poison_scopes_are_distinct(self):
        cache = BlockSummaryCache()
        clean = cache.scope(frozenset())
        poisoned = cache.scope(frozenset({0x40}))
        assert clean is not poisoned
        assert cache.scope(frozenset()) is clean
        assert cache.scope(frozenset({0x40})) is poisoned

    def test_invalidate_single_scope(self):
        cache = BlockSummaryCache()
        cache.scope(frozenset())["k"] = "clean-entry"
        cache.scope(frozenset({0x40}))["k"] = "poisoned-entry"
        assert len(cache) == 2
        cache.invalidate(frozenset({0x40}))
        assert len(cache) == 1
        assert "k" in cache.scope(frozenset())

    def test_invalidate_everything(self):
        cache = BlockSummaryCache()
        cache.scope(frozenset())["k"] = "entry"
        cache.scope(frozenset({0x40}))["k"] = "entry"
        cache.invalidate()
        assert len(cache) == 0

    def test_syscalls_and_clobbers_never_summarized(self, racy_program):
        """System ops invalidate emulated memory; no stored span may
        contain one (they are excluded at lowering time)."""
        compiled = lowered(racy_program)
        sys_ips = [ip for ip in range(len(racy_program))
                   if racy_program[ip].op in SYSTEM_OPS]
        assert sys_ips, "fixture must contain synchronization ops"
        assert not any(compiled.summarizable[ip] for ip in sys_ips)

        cache = BlockSummaryCache()
        bundle = trace_run(racy_program, period=3, seed=1)
        replay(racy_program, bundle, cache=cache)
        replay(racy_program, bundle, cache=cache)
        assert len(cache) > 0
        for table in cache._by_poison.values():
            for (path, _sig) in table:
                for ip in path:
                    assert compiled.summarizable[ip]

    def test_span_keys_carry_their_path(self, racy_program):
        """Summary keys embed the recorded instruction path, so a span
        may follow control flow across block boundaries without ever
        being replayed onto a window that took a different path."""
        compiled = lowered(racy_program)
        cache = BlockSummaryCache()
        bundle = trace_run(racy_program, period=4, seed=1)
        replay(racy_program, bundle, cache=cache)
        assert len(cache) > 0
        crossing = 0
        for table in cache._by_poison.values():
            for (path, _sig) in table:
                assert len(path) >= 2
                if len({compiled.block_id[ip] for ip in path}) > 1:
                    crossing += 1
        assert crossing > 0

    def test_decode_segment_boundaries_stay_bit_identical(self, racy_program):
        """PT gaps split decode into segments; windows (and therefore
        spans) never cross them, and a warm cache changes nothing."""
        program = racy_program
        bundle = trace_run(program, period=4, seed=7)
        degraded, defects = FaultPlan(seed=3, pt_gap=0.4).apply(bundle)
        assert defects.pt_gaps > 0
        assert_cache_invisible(program, degraded)


class TestLoweringCache:
    def test_dropped_programs_leave_the_cache(self):
        """The compiled-program cache is weak-keyed by the program, so
        a compiled form must not hold its own program: otherwise no
        lowered program is ever freed (a leak for long-running
        services that build a program per bundle)."""
        before = len(lowering._COMPILED)
        refs = []
        for seed in range(30):
            program, _ = generate_racy_program(seed, CONFIG)
            OfflinePipeline(program).analyze(
                trace_run(program, period=4, seed=seed))
            assert program in lowering._COMPILED
            refs.append(weakref.ref(program))
        del program
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(lowering._COMPILED) <= before
