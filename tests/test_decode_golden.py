"""Decode goldens: every path the PT decoder reconstructs, pinned.

The decoder turns a thread's packet stream back into the exact list of
executed instruction addresses that alignment, replay and detection all
index into.  These goldens pin what it produces over the machine-golden
corpus (the same programs, scale and seeds as
``tests/test_machine_golden.py``), so a change to *how* it decodes can
be checked to change nothing observable.  Per input and seed the golden
file holds, for each decode case, a blake2b digest of
``repr((steps, anchors, complete, gap_ranges, segment_starts,
ovf_gaps))`` per thread — or ``"Class: message"`` when decode raises —
plus :func:`~repro.ptdecode.decode_all_tolerant`'s failures dict.  The
cases are the clean trace, the clean trace under every
:func:`~repro.faults.builtin_plans` and :func:`~repro.faults.clock_plans`
plan, a governed trace, and traces taken with a PT address filter and
with return compression off.

Generated traces never reach most of the decoder's error handling: a
torn stream, a filter stop mid-path, a second OVF inside a gap, a stray
END before a resync point, an exhausted step budget.  So every thread
stream also gets seeded mutations — a dropped packet, a flipped TNT bit,
an OVF in place of a packet, a truncation, a wrong kind or target, a
random start ip, back-to-back OVFs, and mixes of those — decoded at the
default step budget and at :data:`SMALL_BUDGET`.  The outcomes of each
stream's mutations are pinned as one digest per stream, next to the
failures of a tolerant decode of every stream damaged at once.

Recording the goldens (only ever on a commit whose decoder is trusted)::

    PYTHONPATH=src python -m tests.test_decode_golden
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from repro.faults import builtin_plans, clock_plans
from repro.pmu.governor import GovernorConfig
from repro.pmu.pt import PTConfig, PacketKind
from repro.ptdecode import decode_all_tolerant, decode_thread
from repro.tracing import trace_run

from tests.helpers import PTPacket, rows, stream_of
from tests.test_machine_golden import PERIOD, SEEDS, _programs

GOLDEN = Path(__file__).parent / "golden" / "decode.json"
#: Fault intensity of the plan cases.
INTENSITY = 0.2
#: A step budget most mutated paths outgrow mid-run.
SMALL_BUDGET = 37
#: Single-edit mutation shapes; each stream gets one of each, plus
#: :data:`MIXED_MUTATIONS` streams that stack two or three of them.
MUTATIONS = ("drop", "flip", "ovf", "truncate", "kind", "target",
             "start", "double-ovf")
MIXED_MUTATIONS = 4
#: Shapes aimed at a TIP: ``tip-ovf`` swaps it for an OVF, while
#: ``gap-kind`` and ``gap-target`` put an OVF some way before it and then
#: damage it, so decode meets it desynchronized after a gap.  TIPs are
#: rare (indirect jumps, uncompressed returns), so a stream gets each
#: shape once per TIP, up to :data:`TIP_EDITS` times.
TIP_MUTATIONS = ("tip-ovf", "gap-kind", "gap-target")
TIP_EDITS = 3


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _outcome(decode, tally: Counter) -> str:
    """Digest of the decoded path, or ``"Class: message"``.  *tally*
    counts what the decode reached: each error message (numbers
    blanked) and each kind of degraded path."""
    try:
        path = decode()
    except Exception as error:
        outcome = f"{type(error).__name__}: {error}"
        tally[re.sub(r"-?\d+", "N", outcome)] += 1
        return outcome
    tally["resynced"] += bool(path.segment_starts)
    tally["incomplete"] += not path.complete
    return _digest(repr((path.steps, path.anchors, path.complete,
                         path.gap_ranges, path.segment_starts,
                         path.ovf_gaps)))


def _filters(program):
    """Trace only the first half of the code, so threads that run in
    the other half stop at their first unrecorded branch."""
    return ((0, len(program) // 2),)


def _bundles(program, seed):
    """``(case name, bundle)`` for every decode case of one input."""
    clean = trace_run(program, period=PERIOD, seed=seed)
    cases = [("clean", clean)]
    plans = {**builtin_plans(INTENSITY), **clock_plans(INTENSITY)}
    cases += [(name, plan.apply(clean)[0]) for name, plan in plans.items()]
    cases.append(("governed", trace_run(
        program, period=PERIOD, seed=seed, governor=GovernorConfig())))
    cases.append(("filtered", trace_run(
        program, period=PERIOD, seed=seed,
        pt_config=PTConfig(filters=_filters(program)))))
    cases.append(("no-ret-compression", trace_run(
        program, period=PERIOD, seed=seed,
        pt_config=PTConfig(ret_compression=False))))
    return cases


def _decode_case(program, bundle, tally):
    samples = {tid: bundle.samples_of_thread(tid)
               for tid in bundle.pt_traces}
    paths = {}
    for tid in sorted(bundle.pt_traces):
        paths[str(tid)] = _outcome(lambda: decode_thread(
            program, bundle.pt_traces[tid], config=bundle.pt_config,
            samples=samples[tid]), tally)
    return {"paths": paths,
            "failures": _failures(program, bundle.pt_traces, bundle)}


def _failures(program, traces, bundle):
    """:func:`decode_all_tolerant`'s failures dict for *traces*."""
    samples = {tid: bundle.samples_of_thread(tid) for tid in traces}
    _paths, failures = decode_all_tolerant(
        program, traces, config=bundle.pt_config, samples=samples)
    return {str(tid): why for tid, why in failures.items()}


def _packets(trace):
    """*trace*'s packets as :class:`~tests.helpers.PTPacket` objects,
    which carry a target and a bit apart, so an edit that changes a
    packet's kind keeps the payload of the other kind."""
    packets = []
    for kind, tsc, value in rows(trace):
        if kind in (PacketKind.TIP, PacketKind.OVF):
            packets.append(PTPacket(kind, tsc, target=value))
        elif kind is PacketKind.TNT:
            packets.append(PTPacket(kind, tsc, bit=bool(value)))
        else:
            packets.append(PTPacket(kind, tsc))
    return packets


def _row(packet):
    """*packet* as the decoder reads it: an OVF without a gap end ends
    its gap at its own TSC."""
    if packet.kind is PacketKind.OVF and packet.target is None:
        return packet.kind, packet.tsc, packet.tsc
    return packet.row


def _rekind(rng, packet, program):
    """*packet* with a wrong kind: another :class:`PacketKind`, or
    ``None``, a kind no stream reader produces."""
    kind = rng.choice([k for k in (*PacketKind, None) if k is not packet.kind])
    return PTPacket(
        kind, packet.tsc,
        target=rng.randrange(len(program)) if kind is PacketKind.TIP
        else packet.target,
        bit=rng.random() < 0.5 if kind is PacketKind.TNT else packet.bit)


def _retarget(rng, packet, program, tscs):
    """*packet* with a wrong target: for an OVF another gap end, for
    anything else an ip, off the program half the time."""
    if packet.kind is PacketKind.OVF:
        target = rng.choice(tscs)
    elif rng.random() < 0.5:
        target = rng.choice((-1, len(program)))
    else:
        target = rng.randrange(len(program))
    return PTPacket(packet.kind, packet.tsc, target=target, bit=packet.bit)


def _mutate(rng, trace, shapes, program):
    """A copy of *trace* with each edit in *shapes* applied in turn."""
    packets = _packets(trace)
    start_ip = trace.start_ip
    tscs = [packet.tsc for packet in packets]
    for shape in shapes:
        n = len(packets)
        if shape == "start":
            start_ip = rng.randrange(-1, len(program) + 1)
            continue
        if n == 0:
            continue
        i = rng.randrange(n)
        packet = packets[i]
        if shape == "drop":
            del packets[i]
        elif shape == "flip":
            bits = [j for j, p in enumerate(packets)
                    if p.kind is PacketKind.TNT]
            if bits:
                j = rng.choice(bits)
                packets[j] = PTPacket(PacketKind.TNT, packets[j].tsc,
                                      bit=not packets[j].bit)
        elif shape == "ovf":
            end = rng.choice(tscs) if rng.random() < 0.75 else None
            packets[i] = PTPacket(PacketKind.OVF, packet.tsc, target=end)
        elif shape == "truncate":
            del packets[i:]
        elif shape == "kind":
            packets[i] = _rekind(rng, packet, program)
        elif shape == "target":
            packets[i] = _retarget(rng, packet, program, tscs)
        elif shape == "double-ovf":
            first, middle, last = sorted(rng.choice(tscs) for _ in range(3))
            packets[i:i] = [PTPacket(PacketKind.OVF, first, target=middle),
                            PTPacket(PacketKind.OVF, middle, target=last)]
        elif shape in TIP_MUTATIONS:
            tips = [j for j, p in enumerate(packets)
                    if p.kind is PacketKind.TIP and j > 0]
            if not tips:
                continue
            t = rng.choice(tips)
            if shape == "tip-ovf":
                end = packets[rng.randrange(t, len(packets))].tsc
                packets[t] = PTPacket(PacketKind.OVF, packets[t].tsc,
                                      target=end)
                continue
            i = rng.randrange(t)
            packets[i] = PTPacket(PacketKind.OVF, packets[i].tsc,
                                  target=packets[rng.randrange(i, t)].tsc)
            packets[t] = (_rekind(rng, packets[t], program)
                          if shape == "gap-kind"
                          else _retarget(rng, packets[t], program, tscs))
    return stream_of(map(_row, packets), tid=trace.tid, start_ip=start_ip,
                     start_tsc=trace.start_tsc)


def _mutation_outcomes(program, bundle, tid, rng, tally):
    """Every mutation outcome of one thread stream, both budgets."""
    trace = bundle.pt_traces[tid]
    samples = bundle.samples_of_thread(tid)
    tips = sum(1 for kind, _tsc, _value in rows(trace)[1:]
               if kind is PacketKind.TIP)
    edits = [(shape,) for shape in MUTATIONS]
    edits += [(shape,) for _ in range(min(tips, TIP_EDITS))
              for shape in TIP_MUTATIONS]
    edits += [tuple(rng.choice(MUTATIONS + TIP_MUTATIONS)
                    for _ in range(rng.randrange(2, 4)))
              for _ in range(MIXED_MUTATIONS)]
    outcomes = []
    for shapes in edits:
        mutated = _mutate(rng, trace, shapes, program)
        for budget in (50_000_000, SMALL_BUDGET):
            outcomes.append(_outcome(lambda: decode_thread(
                program, mutated, config=bundle.pt_config,
                max_steps=budget, samples=samples), tally))
    return outcomes


@lru_cache(maxsize=None)
def observed():
    """Decode every golden case once: ``(entries, generated tally,
    mutation tally)`` (see :func:`_outcome` for the tallies)."""
    entries = {}
    generated: Counter = Counter()
    mutated: Counter = Counter()
    for name, program in _programs():
        for seed in SEEDS:
            for case, bundle in _bundles(program, seed):
                entries[f"{name}/seed{seed}/{case}"] = \
                    _decode_case(program, bundle, generated)
                if case not in ("clean", "filtered", "no-ret-compression"):
                    continue
                rng = random.Random(f"{name}/{seed}/{case}")
                outcomes = {
                    str(tid): _digest(repr(_mutation_outcomes(
                        program, bundle, tid, rng, mutated)))
                    for tid in sorted(bundle.pt_traces)
                }
                # Every stream damaged at once, so the tolerant decode
                # fails some threads and keeps the rest.
                damaged = {tid: _mutate(rng, trace, ("drop", "kind"), program)
                           for tid, trace in bundle.pt_traces.items()}
                entries[f"{name}/seed{seed}/{case}/mutations"] = {
                    "outcomes": outcomes,
                    "failures": _failures(program, damaged, bundle),
                }
    return entries, generated, mutated


@lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text())


INPUTS = [name for name, _ in _programs()]


def _entries_of(entries, name):
    prefix = f"{name}/"
    return {key: value for key, value in entries.items()
            if key.startswith(prefix)}


def test_golden_file_covers_every_case():
    entries, _, _ = observed()
    assert sorted(golden()) == sorted(entries)


@pytest.mark.parametrize("name", INPUTS)
def test_decode_output_unchanged(name):
    entries, _, _ = observed()
    mine = _entries_of(entries, name)
    assert mine, f"no golden decodes for {name}"
    assert mine == _entries_of(golden(), name)


def test_generated_cases_cross_gaps_and_filters():
    """Generated traces decode without errors, but they must resync
    across OVF gaps and stop at filters, or the goldens pin only the
    straight path; damaged bundles must fail some threads."""
    entries, generated, _ = observed()
    assert generated["resynced"] > 0
    assert generated["incomplete"] > 0
    assert any(entry["failures"] for key, entry in entries.items()
               if key.endswith("/mutations"))


def test_mutations_raise_every_decode_error():
    _, _, errors = observed()
    expected = {
        "DecodeError: decode exceeded N steps",
        "DecodeError: decoded ip N out of program range",
        "DecodeError: expected END at halt, got PacketKind.TIP",
        "DecodeError: expected END at halt, got PacketKind.TNT",
        "DecodeError: expected END at halt, got None",
        "DecodeError: expected TNT for conditional branch",
        "DecodeError: expected TIP for indirect jmp",
        "DecodeError: compressed-ret TNT bit must be taken",
        "DecodeError: compressed ret with empty call stack",
        "DecodeError: unexpected packet at ret: None",
    }
    assert expected <= set(errors), sorted(expected - set(errors))


if __name__ == "__main__":
    recorded, _, _ = observed()
    lines = [f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(recorded.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(recorded)} entries to {GOLDEN}")
