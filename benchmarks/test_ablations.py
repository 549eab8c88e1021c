"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but quantifications of its design decisions:

* the ProRace driver's randomized first period → sampling diversity
  across runs (§4.1.2);
* PT return compression → trace bytes (§4.2's compression);
* the fixed-point iteration count of the replay engine (§5.2.2);
* the §5.1 race-regeneration pass → retraction of unsound reconstructed
  accesses.
"""

from repro.analysis import OfflinePipeline
from repro.pmu import PRORACE_DRIVER, PTConfig, PTPacketizer, VANILLA_DRIVER
from repro.machine import Machine
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import PARSEC_WORKLOADS, RACE_BUGS

from conftest import write_table


def test_ablation_randomized_first_period(benchmark, profile, results_dir):
    """Across seeds with a fixed schedule-independent workload, the
    randomized first period diversifies *which* operations get sampled —
    the property Table 2's multi-trace methodology depends on."""
    bug = RACE_BUGS["cherokee-0.9.2"]
    program = bug.build(profile.bug_scale)

    def measure():
        diversity = {}
        for driver in (PRORACE_DRIVER, VANILLA_DRIVER):
            signatures = set()
            for seed in range(8):
                machine = Machine(program, seed=1)  # same schedule
                from repro.pmu import PEBSConfig, PEBSEngine

                pebs = PEBSEngine(PEBSConfig(period=37), driver=driver,
                                  seed=seed)
                machine.attach(pebs)
                machine.run()
                signatures.add(
                    tuple(sample.tsc for sample in pebs.samples[:10])
                )
            diversity[driver.name] = len(signatures)
        return diversity

    diversity = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "distinct sampling phases over 8 runs of one fixed schedule:",
        f"  prorace (randomized first period): {diversity['prorace']}",
        f"  vanilla (fixed first period):      {diversity['vanilla']}",
    ]
    write_table(results_dir, "ablation_randomized_period", lines)
    assert diversity["prorace"] > diversity["vanilla"]
    assert diversity["vanilla"] == 1


CALL_HEAVY = """
.global acc 0
main:
    mov $400, %rcx
loop:
    call work
    dec %rcx
    cmp $0, %rcx
    jne loop
    halt
work:
    call leaf
    call leaf
    ret
leaf:
    mov acc(%rip), %rax
    add $1, %rax
    mov %rax, acc(%rip)
    ret
"""


def test_ablation_ret_compression(benchmark, profile, results_dir):
    """PT return compression: compressed RETs cost one TNT bit instead of
    a 5-byte TIP packet — a ~3x trace reduction on call-heavy code."""
    from repro.isa import assemble

    program = assemble(CALL_HEAVY, "call-heavy")

    def measure():
        sizes = {}
        for compressed in (True, False):
            machine = Machine(program, seed=1)
            pt = PTPacketizer(PTConfig(ret_compression=compressed))
            machine.attach(pt)
            machine.run()
            sizes[compressed] = pt.total_size_bytes()
        return sizes

    sizes = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"PT bytes with ret compression:    {sizes[True]}",
        f"PT bytes without ret compression: {sizes[False]}",
    ]
    write_table(results_dir, "ablation_ret_compression", lines)
    assert sizes[True] < sizes[False]


def test_ablation_fixpoint_iterations(benchmark, profile, results_dir):
    """Recovery vs the forward/backward fixed-point iteration cap: one
    round already captures most accesses; iteration adds the §5.2.2 tail.
    Past the fixed point a higher cap runs no further iteration.
    """
    bug = RACE_BUGS["mysql-644"]
    program = bug.build(profile.bug_scale)
    bundle = trace_run(program, period=60, seed=3)

    def measure():
        stats = {}
        for max_iterations in (1, 2, 4, 8):
            engine = ReplayEngine(program, mode="full",
                                  max_iterations=max_iterations)
            stats[max_iterations] = engine.replay_bundle(bundle).stats
        return stats

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"max_iterations={k}: {s.recovered} recovered accesses, "
        f"{s.iterations} iterations"
        for k, s in stats.items()
    ]
    write_table(results_dir, "ablation_fixpoint", lines)
    recovered = [stats[k].recovered for k in (1, 2, 4, 8)]
    assert recovered == sorted(recovered)
    assert stats[8].iterations == stats[4].iterations


def test_ablation_regeneration(benchmark, profile, results_dir):
    """§5.1 regeneration: with the invalidate-and-regenerate pass off
    (max_regenerations=0 equivalent: single round), races detected on
    emulation-tainted reconstructions would stand; the pass retracts
    them.  Measures how many rounds real bug workloads need."""
    rounds_used = {}

    def measure():
        for name in ("apache-21287", "mysql-644", "pbzip2-0.9.4"):
            bug = RACE_BUGS[name]
            program = bug.build(profile.bug_scale)
            bundle = trace_run(program, period=60, seed=2)
            result = OfflinePipeline(program).analyze(bundle)
            rounds_used[name] = result.regeneration_rounds
        return rounds_used

    benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{name}: {rounds} regeneration round(s)"
             for name, rounds in rounds_used.items()]
    write_table(results_dir, "ablation_regeneration", lines)
    for rounds in rounds_used.values():
        assert rounds >= 1


def test_ablation_lockset_vs_happens_before(benchmark, profile, results_dir):
    """§4.3 chooses happens-before "for precision (no false positives)".
    Quantifies the alternative: an Eraser-style lockset detector on the
    same reconstructed event streams reports false positives on every
    fork/join- or semaphore-ordered workload; FastTrack reports none."""
    from repro.detector import FastTrack, LocksetDetector, SyncOp
    from repro.analysis import OfflinePipeline
    from repro.tracing import trace_run
    from repro.workloads import PARSEC_WORKLOADS

    names = ("dedup", "x264", "blackscholes", "streamcluster")

    def measure():
        rows = {}
        for name in names:
            program = PARSEC_WORKLOADS[name].instantiate(
                profile.workload_scale
            )
            bundle = trace_run(program, period=20, seed=3)
            events, _ = OfflinePipeline(program).events_for(bundle)
            fasttrack, lockset = FastTrack(), LocksetDetector()
            for _, event in events:
                for detector in (fasttrack, lockset):
                    if isinstance(event, SyncOp):
                        detector.sync(event)
                    else:
                        detector.access(event)
            rows[name] = (len(fasttrack.racy_addresses()),
                          len(lockset.racy_addresses()))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'workload':16s}{'HB races':>10s}{'lockset warnings':>18s}",
             "-" * 44]
    for name, (hb, ls) in rows.items():
        lines.append(f"{name:16s}{hb:10d}{ls:18d}")
    lines.append("")
    lines.append("(these workloads are race-free: every lockset warning "
                 "is a false positive)")
    write_table(results_dir, "ablation_lockset", lines)

    for name, (hb, ls) in rows.items():
        assert hb == 0, f"{name}: HB must be precise"
    # Handoff-style workloads trip the lockset detector.
    assert rows["dedup"][1] > 0
    assert rows["x264"][1] > 0
