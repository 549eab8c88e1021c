"""The fan-out's mapping contract: ordering, determinism, validation.

Every fan-out over whole units of work goes through
:func:`repro.supervise.supervised_map`; these tests pin what a caller
with no supervision policy relies on (each item run once, results in
input order on every executor).  Retries, timeouts, crashes and
checkpoints are ``tests/test_supervise.py``'s.
"""

import os

import pytest

from repro.supervise import EXECUTORS, resolve_jobs, supervised_map


def _square(x):
    """Module-level so the process executor can pickle it."""
    return x * x


def _results(fn, items, **kwargs):
    results, ledger = supervised_map(fn, items, **kwargs)
    assert ledger.attempts == len(results)
    return results


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_auto_uses_cpu_count(self):
        assert resolve_jobs(None) == max(1, os.cpu_count() or 1)
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_negative_clamped(self):
        assert resolve_jobs(-2) == 1


class TestParallelMap:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_preserves_input_order(self, executor, jobs):
        items = list(range(17))
        assert _results(_square, items, jobs=jobs,
                        executor=executor) == [x * x for x in items]

    def test_empty(self):
        assert _results(_square, [], jobs=4) == []

    def test_single_item_runs_inline(self):
        assert _results(lambda x: (x * x, os.getpid()), [7], jobs=4,
                        executor="process") == [(49, os.getpid())]

    def test_generator_input(self):
        assert _results(_square, (x for x in range(5)), jobs=2) == \
            [0, 1, 4, 9, 16]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            supervised_map(_square, [1, 2], jobs=2, executor="gpu")

    def test_closures_allowed_on_threads(self):
        offset = 10
        assert _results(lambda x: x + offset, [1, 2, 3], jobs=2,
                        executor="thread") == [11, 12, 13]
