"""Replay reuse must be invisible.

The micro-op executor itself is pinned by ``tests/test_replay_golden.py``
(goldens recorded against the instruction interpreter it replaced) and
checked against machine ground truth by
``tests/test_property_soundness.py``.  Two caches sit around it, and
both are pure performance work:

* the analysis context reuses, across §5.1 regeneration rounds, every
  thread whose replay touched none of the newly poisoned addresses: its
  final round must recover exactly what a fresh replay under the final
  poison set does, on generated one-round inputs and on a fixed input
  whose second round reuses a thread;
* the weak-keyed lowering cache must free each compiled form with its
  program.
"""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.isa import assemble, lowering
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import GeneratorConfig, generate_racy_program
from tests.helpers import REGEN_BYSTANDER_ASM

CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)


def _assert_final_round_is_fresh(program, bundle):
    """Analyze *bundle* and compare its final round with a fresh
    replay under the final poison set; returns the analysis context."""
    pipeline = OfflinePipeline(program)
    result = pipeline.analyze(bundle)
    _bundle, context, _replay = pipeline._analyzed
    plain = ReplayEngine(
        program, poisoned=context._last_poisoned).replay_bundle(bundle)
    assert result.replay.per_thread == plain.per_thread
    return context


class TestDifferential:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_pipeline_jit_is_invisible(self, seed):
        """End to end: the analysis context's final round recovers
        exactly what a fresh replay under the same poison set does.
        These generated inputs end in one §5.1 round, so no thread is
        reused here; :meth:`test_reused_thread_is_invisible` covers
        the reuse."""
        program, _ = generate_racy_program(seed, CONFIG)
        _assert_final_round_is_fresh(program,
                                     trace_run(program, period=5, seed=seed))

    def test_reused_thread_is_invisible(self):
        """The same check on an input whose second §5.1 round reuses
        the bystander thread's cached replay."""
        program = assemble(REGEN_BYSTANDER_ASM)
        context = _assert_final_round_is_fresh(
            program, trace_run(program, period=3, seed=0))
        assert context.stats.replay_rounds == 2
        assert context.stats.threads_reused >= 1


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
