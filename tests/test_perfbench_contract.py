"""The contract between the program and the frozen end-to-end benchmark.

``perfbench/`` imports, calls and patches program names from outside
(``perfbench/flows.py``, ``LAYER_SPANS`` in ``perfbench/spans.py``).
A change that deletes or renames one of them breaks the benchmark run;
these tests make it break the test suite first.  They only import from
``perfbench/`` and never edit it.
"""

import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import flows  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize(
    "entry", spans.LAYER_SPANS,
    ids=[f"{entry[2]}:{entry[1]}" for entry in spans.LAYER_SPANS],
)
def test_layer_span_boundary_resolves(entry):
    owner, attribute = entry[0], entry[1]
    inspect.getattr_static(owner, attribute)


@pytest.fixture(scope="module")
def first_inputs():
    """Every workload's first input, run once under all the layer spans:
    ``{workload: (outcome, tracer)}``."""
    runs = {}
    for name, workload in sorted(flows.WORKLOADS.items()):
        item = flows.setup(workload, 0)[0]
        with spans.installed(spans.Tracer()) as tracer:
            outcome = flows.run_input(workload, item, tracer.stage)
        runs[name] = (outcome, tracer)
    return runs


@pytest.mark.parametrize("name", sorted(flows.WORKLOADS))
def test_first_input_runs_under_spans(name, first_inputs):
    outcome, tracer = first_inputs[name]
    assert outcome.error is None
    assert outcome.out_of_set == 0
    assert tracer.depth == 0


def test_every_span_boundary_fires(first_inputs):
    """A boundary that resolves but is no longer called through, say a
    decode or replay the pipeline reaches around its patched name,
    would silently zero that layer's metrics.  Together the first
    inputs enter every span, and each decodes and replays steps."""
    expected = {entry[2] for entry in spans.LAYER_SPANS}
    expected |= {entry[3] for entry in spans.LAYER_SPANS if entry[3]}
    entered = {node.name for _outcome, tracer in first_inputs.values()
               for node, _ancestors in tracer.nodes()}
    assert expected - entered == set()
    for name, (_outcome, tracer) in first_inputs.items():
        assert tracer.counts["decode.steps"] > 0, name
        assert tracer.counts["replay.stepped"] > 0, name


@pytest.mark.parametrize("name", sorted(flows.WORKLOADS))
def test_fresh_setups_repeat(name):
    """A benchmark pass builds its inputs anew with ``flows.setup``, three
    times over, in the process that ran the passes before it.  State
    kept across passes, or keyed by object identity, could make the
    same input fail or change its answer only after a rebuild.  So build
    the inputs twice in this process and run the first two of each
    build (on ``lossy-reconcile`` they carry both fault plans): no input
    may fail, and counts and verdicts must repeat exactly."""
    workload = flows.WORKLOADS[name]
    builds = [flows.setup(workload, 0)[:2] for _ in range(2)]
    if workload.lossy:
        # One data-loss plan and one clock plan.
        assert sorted(bool(item.plan.clock_skew)
                      for item in builds[0]) == [False, True]
    runs = [[flows.run_input(workload, item) for item in inputs]
            for inputs in builds]
    for outcomes in runs:
        for outcome in outcomes:
            assert outcome.error is None, (outcome.label, outcome.error)
            assert not outcome.failed, outcome.label
    first, second = runs
    assert [o.label for o in first] == [o.label for o in second]
    assert [o.counts for o in first] == [o.counts for o in second]
    assert [o.verdicts for o in first] == [o.verdicts for o in second]
