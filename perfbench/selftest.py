"""Self-test of the benchmark's checker, run before every measurement.

A checker that cannot fail proves nothing, so each run first feeds it a
doctored result: one reported pair outside the trace's known racy set
must fail the verdict gate, and the clean result must pass.  It also
checks that every metric name follows the naming rule and carries a
unit, and that ``BENCHMARK.json`` declares exactly these metrics.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace
from typing import List

from flows import Outcome, grade
from metrics import END_TO_END, PER_LAYER, PRINTED_ONLY, invalid_names


def _gate_fails(races, racy_ips) -> bool:
    outcome = Outcome(label="self-test", labelled=True)
    grade(outcome, races, racy_ips)
    return outcome.failed


def problems(benchmark_json: Path) -> List[str]:
    """What is wrong with the checker or the declarations (empty: ok)."""
    found = []
    racy_ips = frozenset({0x40, 0x48})
    clean = [SimpleNamespace(address=0x1000, pair=(0x40, 0x48))]
    doctored = clean + [SimpleNamespace(address=0x1000, pair=(0x40, 0x99))]
    if _gate_fails(clean, racy_ips):
        found.append("the verdict gate fails a clean result")
    if not _gate_fails(doctored, racy_ips):
        found.append("the verdict gate passes an out-of-set pair")
    if not _gate_fails(clean, frozenset()):
        found.append("the verdict gate passes a race on a race-free input")

    every_metric = END_TO_END + PRINTED_ONLY + PER_LAYER
    for name in invalid_names({metric.name: None for metric in every_metric}):
        found.append(f"metric {name!r} breaks the naming rule or has no unit")

    if not benchmark_json.is_file():
        return found + [f"{benchmark_json} is missing"]
    declared = json.loads(benchmark_json.read_text())
    for key, metrics in (("end_to_end", END_TO_END),
                         ("per_layer", PER_LAYER)):
        expected = [
            {"name": m.name, "unit": m.unit, "better": m.better,
             **({"bound": m.bound} if key == "end_to_end" else {})}
            for m in metrics
        ]
        if declared.get(key) != expected:
            found.append(f"BENCHMARK.json {key} differs from metrics.py")
    return found
