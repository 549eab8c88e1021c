"""Replay goldens: every access window replay reconstructs, pinned.

Window replay (§5.1–5.2) turns decoded paths and sparse samples into
the extended memory trace that detection consumes.  These goldens pin
what :class:`~repro.replay.ReplayEngine` produces, so a change to *how*
it replays can be checked to change nothing observable.  Per input,
seed, case and replay mode the golden file holds

* a blake2b digest of ``repr`` of every thread's recovered accesses —
  every :class:`~repro.replay.RecoveredAccess` field, provenance and
  taint included (taints as sorted tuples, so the digest does not
  depend on set iteration order);
* a digest of every thread's sorted ``emulated_touched`` set, the
  predicate §5.1 regeneration rounds invalidate by;
* the :class:`~repro.replay.ReplayStats` recovery counts.

The inputs are the machine-golden corpus (the same programs, scale,
seeds and period as ``tests/test_machine_golden.py``), clean and under
every :func:`~repro.faults.builtin_plans` plan; the conftest fixture
programs at several periods; seeded random racy programs, clean and
under a seeded :class:`~repro.faults.FaultPlan`; and :data:`REPLAY_ASM`,
written to reach the executor branches the rest never does.  Every case
replays in ``full``, ``forward`` and ``basicblock`` mode, cold and then
warm through one :class:`~repro.replay.BlockSummaryCache`, and the clean
traces also without a cache: all of them must match the one golden
entry.  Each clean trace is also replayed in ``full`` mode under a
poison set, as a §5.1 regeneration round would.

Recording the goldens (only ever on a commit whose replay is trusted)::

    PYTHONPATH=src python -m tests.test_replay_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from repro.faults import FaultPlan, builtin_plans
from repro.isa import assemble
from repro.ptdecode import decode_all
from repro.replay import BlockSummaryCache, ReplayEngine
from repro.tracing import trace_run
from repro.workloads import GeneratorConfig, generate_racy_program

from tests.helpers import CLEAN_COUNTER_ASM, RACY_ASM
from tests.test_machine_golden import PERIOD, SEEDS, _programs

GOLDEN = Path(__file__).parent / "golden" / "replay.json"
#: Fault intensity of the corpus plan cases.
INTENSITY = 0.2
MODES = ("full", "forward", "basicblock")
#: Periods the conftest fixture programs are traced at (seed 3).
FIXTURE_PERIODS = (1, 4, 17)
RANDOM_CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)
#: Seeds of the random racy programs; each is traced at a period drawn
#: from :data:`RANDOM_PERIODS` and degraded by one seeded fault plan.
RANDOM_SEEDS = tuple(range(10))
RANDOM_PERIODS = (1, 3, 7, 23)
#: Periods :data:`REPLAY_ASM` is traced at.
ASM_PERIODS = (2, 3, 5, 7, 11)
STATS = ("recovered", "forward", "backward", "basicblock", "sampled",
         "windows", "windows_aborted")

#: Executor corners the corpus never reaches.  The main thread compares
#: and pushes through addresses the replay cannot compute, pushes a
#: value loaded from emulated memory, pushes with an unknown stack
#: pointer while emulated memory holds entries, and overwrites the
#: index of one ``lea base+index`` and the base of another, which
#: reverse execution then recovers from the sums, so the loads before
#: them that the forward pass missed are recovered backward.  The two
#: workers run the same head: their first samples land at the same
#: step, so before it both replay with every register unknown, and the
#: second worker's replay reuses the span summary the first one stored.
#: That span stores through an unknown address and calls with an
#: unknown stack pointer while emulated memory holds entries.
REPLAY_ASM = """
.global cell 0
.global sink 0
.global slot 0
.global save 0
.global idx 2
.array table 5 6 7 8 9 10 11 12
.ptr ptr sink
.ptr tptr table
main:
    spawn worker, %rbx
    spawn worker, %r12
    mov $5, %rcx
mloop:
    lea table(%rip), %rsi
    mov idx(%rip), %rax
    mov table(,%rax,8), %r9
    mov (%rsi,%rax,8), %r15
    lea (%rsi,%rax,8), %rdi
    mov (%rdi), %rax
    lea (%rdi,%rcx,8), %r10
    mov (%r10), %rdi
    mov tptr(%rip), %r13
    cmp (%r13), %rax
    push (%r13)
    pop %r8
    mov $9, %rdx
    mov %rdx, slot(%rip)
    push slot(%rip)
    pop %r11
    mov %rsp, save(%rip)
    io $1
    mov %rdx, slot(%rip)
    mov save(%rip), %rsp
    push %rax
    pop %rax
    dec %rcx
    cmp $0, %rcx
    jne mloop
    join %rbx
    join %r12
    halt
worker:
    mov $5, cell(%rip)
    mov ptr(%rip), %rbx
    mov %rax, (%rbx)
    mov $6, cell(%rip)
    call helper
    mov $8, %rcx
wloop:
    mov cell(%rip), %rax
    add $1, %rax
    mov %rax, cell(%rip)
    dec %rcx
    cmp $0, %rcx
    jne wloop
    halt
helper:
    mov $7, sink(%rip)
    ret
"""


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _entry(result) -> dict:
    per_thread = {
        tid: [(a.tid, a.step_index, a.ip, a.address, a.is_store,
               a.provenance, None if a.taint is None else sorted(a.taint))
              for a in accesses]
        for tid, accesses in sorted(result.per_thread.items())
    }
    touched = {tid: sorted(addresses)
               for tid, addresses in sorted(result.emulated_touched.items())}
    return {
        "accesses": _digest(repr(per_thread)),
        "touched": _digest(repr(touched)),
        "stats": {name: getattr(result.stats, name) for name in STATS},
    }


def _replays(key, program, bundle, poisoned=frozenset(), uncached=False,
             modes=MODES):
    """Replay one case in every mode of *modes*: a cold and a warm
    replay through one summary cache per mode and, with *uncached*, a
    replay without any cache.  Returns ``{f"{key}/{mode}": [(run name,
    entry), ...]}`` and the union of the cold full-mode replay's
    emulated addresses."""
    paths = decode_all(
        program, bundle.pt_traces, config=bundle.pt_config,
        samples={tid: bundle.samples_of_thread(tid)
                 for tid in bundle.pt_traces})
    runs = {}
    touched = set()
    for mode in modes:
        cached = ReplayEngine(program, mode=mode, poisoned=poisoned,
                              summary_cache=BlockSummaryCache())
        cold = cached.replay_bundle(bundle, paths)
        entries = [("cold", _entry(cold)),
                   ("warm", _entry(cached.replay_bundle(bundle, paths)))]
        if uncached:
            plain = ReplayEngine(program, mode=mode, poisoned=poisoned)
            entries.append(
                ("uncached", _entry(plain.replay_bundle(bundle, paths))))
        runs[f"{key}/{mode}"] = entries
        if mode == "full":
            for addresses in cold.emulated_touched.values():
                touched |= addresses
    return runs, touched


def _random_plan(seed: int) -> FaultPlan:
    rng = random.Random(seed)
    return FaultPlan(seed=rng.randrange(1_000),
                     sample_drop=rng.random(), pt_gap=rng.random(),
                     log_truncation=rng.random(), tsc_jitter=rng.random())


def _inputs():
    """``(key prefix, program, clean bundle, {case: degraded bundle})``
    for every golden input."""
    for name, program in _programs():
        for seed in SEEDS:
            clean = trace_run(program, period=PERIOD, seed=seed)
            yield (f"{name}/seed{seed}", program, clean,
                   {plan_name: plan.apply(clean)[0]
                    for plan_name, plan in builtin_plans(INTENSITY).items()})
    fixtures = (("fixture:clean", CLEAN_COUNTER_ASM, FIXTURE_PERIODS),
                ("fixture:racy", RACY_ASM, FIXTURE_PERIODS),
                ("asm:replay", REPLAY_ASM, ASM_PERIODS))
    for name, source, periods in fixtures:
        program = assemble(source, name)
        for period in periods:
            yield (f"{name}/period{period}", program,
                   trace_run(program, period=period, seed=3), {})
    for seed in RANDOM_SEEDS:
        program, _ = generate_racy_program(seed, RANDOM_CONFIG)
        period = RANDOM_PERIODS[seed % len(RANDOM_PERIODS)]
        bundle = trace_run(program, period=period, seed=seed)
        yield (f"random:{seed}/period{period}", program, bundle,
               {"faulted": _random_plan(seed).apply(bundle)[0]})


@lru_cache(maxsize=None)
def observed():
    """Replay every golden case once: ``{key: [(run name, entry)]}``
    with one key per case and mode.  Each clean trace is also replayed
    in full mode under every other address its clean replay emulated,
    so emulating stores meet both poisoned and unpoisoned slots."""
    runs = {}
    for prefix, program, clean, degraded in _inputs():
        clean_runs, touched = _replays(f"{prefix}/clean", program, clean,
                                       uncached=True)
        runs.update(clean_runs)
        for case, bundle in degraded.items():
            runs.update(_replays(f"{prefix}/{case}", program, bundle)[0])
        runs.update(_replays(f"{prefix}/poisoned", program, clean,
                             poisoned=frozenset(sorted(touched)[::2]),
                             modes=("full",))[0])
    return runs


@lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text())


INPUTS = [name for name, _ in _programs()] + [
    "fixture:clean", "fixture:racy", "asm:replay", "random"]


def _keys_of(keys, name):
    prefix = "random:" if name == "random" else f"{name}/"
    return sorted(key for key in keys if key.startswith(prefix))


def test_golden_file_covers_every_case():
    assert sorted(golden()) == sorted(observed())


@pytest.mark.parametrize("name", INPUTS)
def test_replay_output_unchanged(name):
    runs = observed()
    keys = _keys_of(runs, name)
    assert keys, f"no golden replays for {name}"
    assert keys == _keys_of(golden(), name)
    for key in keys:
        for run, entry in runs[key]:
            assert entry == golden()[key], f"{key} ({run} replay)"


def test_golden_cases_recover_through_every_path():
    """The goldens pin more than sampled accesses: backward recovery,
    window aborts at PT gaps and emulated stores all occur."""
    entries = golden()
    assert sum(e["stats"]["backward"] for e in entries.values()) > 0
    assert sum(e["stats"]["basicblock"] for e in entries.values()) > 0
    assert sum(e["stats"]["windows_aborted"] for e in entries.values()) > 0


if __name__ == "__main__":
    recorded = {}
    for key, entries in observed().items():
        (_run, first), *others = entries
        for run, entry in others:
            assert entry == first, f"{key}: {run} replay disagrees"
        recorded[key] = first
    lines = [f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(recorded.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(recorded)} entries to {GOLDEN}")
