"""The §5.2.2 fixed point: window replay stops when nothing new is found.

Forward and backward replay iterate "until they reach the fixed point
where no further restoration is found".  Backward facts accumulate and
each blocked step is asked about once, so raising the iteration cap
past the fixed point must change nothing, not even the iteration count.

The inputs are the fixed-point ablation's (mysql-644, 40 iterations,
period 60, seed 3; ``benchmarks/test_ablations.py``) and the replay
speed benchmark's blackscholes (300 iterations over 128 words, period
50, seed 1; ``benchmarks/test_replay_speed.py``).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

import pytest

from repro.replay import ReplayEngine, WindowReplayer
from repro.tracing import trace_run
from repro.workloads import PARSEC_WORKLOADS, RACE_BUGS, WorkloadScale

INPUTS = {
    "mysql-644": (lambda: RACE_BUGS["mysql-644"].build(
        WorkloadScale(iterations=40)), 60, 3),
    "blackscholes": (lambda: PARSEC_WORKLOADS["blackscholes"].build(
        WorkloadScale(iterations=300, data_words=128)), 50, 1),
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def traced(request):
    build, period, seed = INPUTS[request.param]
    program = build()
    return program, trace_run(program, period=period, seed=seed)


def _replay(program, bundle, max_iterations):
    return ReplayEngine(program, mode="full",
                        max_iterations=max_iterations).replay_bundle(bundle)


def test_cap_past_fixed_point_changes_nothing(traced):
    program, bundle = traced
    at4 = _replay(program, bundle, 4)
    at8 = _replay(program, bundle, 8)
    assert at8.per_thread == at4.per_thread
    assert at8.emulated_touched == at4.emulated_touched
    assert at8.stats.iterations == at4.stats.iterations
    assert at8.stats.executed_steps == at4.stats.executed_steps
    # Some window does iterate, so the cap had something to bound.
    assert at4.stats.iterations > at4.stats.windows


def test_each_step_is_asked_once(traced, monkeypatch):
    program, bundle = traced
    asked = defaultdict(list)
    original = WindowReplayer._backward_pass

    def recording(self, blocked):
        asked[self.tid, self.start, self.end].append(frozenset(blocked))
        return original(self, blocked)

    monkeypatch.setattr(WindowReplayer, "_backward_pass", recording)
    _replay(program, bundle, 8)
    assert asked
    for passes in asked.values():
        assert all(steps for steps in passes)
        for a, b in combinations(passes, 2):
            assert not a & b
