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


@pytest.mark.parametrize("name", sorted(flows.WORKLOADS))
def test_first_input_runs_under_spans(name):
    workload = flows.WORKLOADS[name]
    item = flows.setup(workload, 0)[0]
    with spans.installed(spans.Tracer()) as tracer:
        outcome = flows.run_input(workload, item, tracer.stage)
    assert outcome.error is None
    assert outcome.out_of_set == 0
    assert tracer.depth == 0
