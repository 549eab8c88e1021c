"""Race report rendering: the "Data Race Report" of Figure 1.

Turns a :class:`~repro.analysis.pipeline.DetectionResult` into artefacts
a developer consumes: annotated text reports with disassembly context
around each racing instruction, aggregate summaries across many runs,
and a JSON-serializable form.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..detector.base import DetectionFindings
from ..detector.events import RaceReport
from ..detector.registry import DEFAULT_DETECTOR
from ..isa.program import Program
from .pipeline import DetectionResult

#: Detector selections rendered exactly as the historical single-
#: detector report (no backend sections, no extra keys): the default.
_DEFAULT_SELECTION = (DEFAULT_DETECTOR,)


def _symbol_for(program: Program, address: int) -> Optional[str]:
    """Best-effort data-symbol name covering *address*."""
    best = None
    best_base = -1
    for name, base in program.symbols.items():
        if base <= address and base > best_base:
            best, best_base = name, base
    if best is None:
        return None
    offset = address - best_base
    return best if offset == 0 else f"{best}+{offset:#x}"


def _code_context(program: Program, ip: Optional[int],
                  radius: int = 2) -> List[str]:
    """Disassembly lines around *ip*, the racing one marked with '>'."""
    if ip is None or not (0 <= ip < len(program)):
        return ["    <unknown instruction>"]
    labels_at: Dict[int, List[str]] = {}
    for label, addr in program.labels.items():
        labels_at.setdefault(addr, []).append(label)
    lines = []
    for addr in range(max(0, ip - radius),
                      min(len(program), ip + radius + 1)):
        for label in sorted(labels_at.get(addr, ())):
            lines.append(f"  {label}:")
        marker = ">" if addr == ip else " "
        lines.append(f"  {marker} {addr:5d}: {program[addr]}")
    return lines


def render_race(program: Program, race: RaceReport) -> str:
    """One race, rendered with variable identity and code context."""
    symbol = _symbol_for(program, race.address)
    where = f"{race.address:#x}"
    if symbol:
        where += f" ({symbol})"
    generation = race.var[1]
    if generation:
        where += f" [allocation generation {generation}]"
    out = [f"data race on {where}"]
    out.append(
        f"  first:  thread {race.first_tid} {race.first_kind.value}"
    )
    out.extend("  " + line for line in _code_context(program, race.first_ip))
    out.append(
        f"  second: thread {race.second.tid} {race.second.kind.value} "
        f"(reconstructed via {race.second.provenance})"
    )
    out.extend("  " + line for line in _code_context(program,
                                                     race.second.ip))
    return "\n".join(out)


def render_degradation(result: DetectionResult) -> List[str]:
    """Degradation summary lines (empty for a pristine analysis)."""
    deg = result.degradation
    if not deg.degraded:
        return []
    lines = ["degraded inputs:"]
    if deg.samples_dropped:
        lines.append(
            f"  samples dropped: {deg.samples_dropped} "
            f"in {deg.drop_bursts} overflow bursts"
        )
    if deg.gaps_crossed or deg.pt_packets_lost:
        lines.append(
            f"  pt gaps crossed: {deg.gaps_crossed} "
            f"({deg.pt_packets_lost} packets lost, "
            f"{deg.windows_aborted} replay windows aborted)"
        )
    if deg.sync_records_lost or deg.alloc_records_lost:
        lines.append(
            f"  log truncation: {deg.sync_records_lost} sync / "
            f"{deg.alloc_records_lost} alloc records lost "
            f"({deg.suppressed_accesses} accesses suppressed)"
        )
    if deg.tsc_perturbed:
        lines.append(f"  tsc perturbed: {deg.tsc_perturbed} samples")
    if deg.clock_declared or deg.timeline_rejections:
        if (deg.clock_skewed_cores or deg.clock_drifted_cores
                or deg.clock_steps or deg.clock_regressions):
            lines.append(
                f"  clock faults declared: {deg.clock_skewed_cores} "
                f"skewed / {deg.clock_drifted_cores} drifting cores, "
                f"{deg.clock_steps} steps, "
                f"{deg.clock_regressions} regressions"
            )
        if deg.timeline_rejections:
            lines.append(
                f"  timeline anchors rejected: {deg.timeline_rejections} "
                "(contradicted higher-tier evidence)"
            )
        reconciles = deg.tsc_reconciles
        if reconciles is not None:
            lines.append(
                "  tsc accounting: "
                + ("declared clock damage reconciles with observed "
                   "anchor rejections"
                   if reconciles else
                   "OBSERVED TSC DAMAGE WAS NEVER DECLARED — clock "
                   "faults beyond the declared plan")
            )
    if deg.samples_unaligned:
        lines.append(f"  samples unaligned: {deg.samples_unaligned}")
    if deg.threads_skipped:
        lines.append(
            "  threads skipped: "
            + ", ".join(str(t) for t in deg.threads_skipped)
        )
    if deg.corrupted_sections:
        lines.append(
            "  corrupted sections dropped: "
            + ", ".join(deg.corrupted_sections)
        )
    return lines


def render_governor(result: DetectionResult) -> List[str]:
    """Governor accounting lines (empty for ungoverned runs)."""
    deg = result.degradation
    if not deg.governor_active:
        return []
    lines = [
        "tracing governor:",
        f"  period epochs: {deg.governor_epochs}   "
        f"tier transitions: {deg.governor_tier_transitions}",
    ]
    if deg.governor_pt_sheds:
        lines.append(
            f"  pt shed: {deg.governor_pt_sheds} spans "
            f"({deg.governor_pt_bytes_shed} bytes)"
        )
    if deg.governor_hard_drop_bursts:
        lines.append(
            f"  hard drops: {deg.governor_hard_dropped_samples} samples "
            f"in {deg.governor_hard_drop_bursts} bursts"
        )
    if deg.governor_watchdog_trips:
        lines.append(
            f"  watchdog trips: {deg.governor_watchdog_trips} "
            "(degraded to sync-only tracing)"
        )
    if deg.governor_sync_stalls:
        lines.append(
            f"  sync tracer stalls: {deg.governor_sync_stalls} "
            "(log truncated at last good record)"
        )
    reconciles = deg.governor_reconciles
    lines.append(
        "  accounting: "
        + ("declared losses reconcile with observed degradation"
           if reconciles else
           "DECLARED LOSSES DO NOT RECONCILE — trace may be damaged "
           "beyond what the governor accounted")
    )
    return lines


def render_clock_health(result: DetectionResult) -> List[str]:
    """Clock reconciliation lines (empty when the clock path is off —
    reports of unreconciled analyses stay byte-identical)."""
    clock = result.clock
    if clock is None:
        return []
    model = clock.model
    if not clock.active:
        lines = [
            "clock reconciliation: no evidence of clock damage "
            "(identity model, timestamps trusted as-is)"
        ]
    else:
        lines = [
            "clock reconciliation:",
            f"  evidence: {model.inversions} ordering inversion(s)   "
            f"default uncertainty half-width "
            f"±{model.default_half_width:.1f} ticks",
        ]
        for fit in model.fits:
            drift = (fit.scale - 1.0) * 100.0
            lines.append(
                f"  core {fit.core}: offset {fit.offset:+.1f} ticks, "
                f"drift {drift:+.3f}%, half-width "
                f"±{fit.half_width:.1f} ({fit.anchors} anchors)"
            )
        repair = clock.repair
        if repair.total_moved:
            lines.append(
                f"  monotonicity repair: {repair.sync_moved} sync / "
                f"{repair.sample_moved} sample / "
                f"{repair.alloc_moved} alloc / "
                f"{repair.packet_moved} packet records moved "
                f"(worst {repair.max_displacement} ticks)"
            )
        if clock.total_events:
            lines.append(
                f"  uncertainty overlap: {clock.overlap_events}/"
                f"{clock.total_events} accesses "
                f"({clock.overlap_fraction:.1%}) ordered by "
                "sync-derived happens-before only"
            )
    reconciles = clock.reconciles
    if reconciles is not None:
        lines.append(
            "  accounting: "
            + ("declared clock faults reconcile with observed damage"
               if reconciles else
               "OBSERVED CLOCK DAMAGE WAS NEVER DECLARED — faults "
               "beyond the declared plan")
        )
    return lines


def render_backend_section(program: Program,
                           findings: DetectionFindings) -> List[str]:
    """One non-primary backend's findings as a compact report section,
    including backend-specific fields (witness schedules, sample
    budgets) from ``findings.details``."""
    lines = [
        f"--- backend {findings.backend}: {len(findings.races)} "
        f"distinct race(s) ---",
    ]
    if findings.details:
        detail = "   ".join(
            f"{key}: {value}" for key, value in findings.details.items()
        )
        lines.append(f"  {detail}")
    for index, race in enumerate(findings.races, start=1):
        symbol = _symbol_for(program, race.address)
        where = f"{race.address:#x}" + (f" ({symbol})" if symbol else "")
        lines.append(
            f"  [{index}] race on {where}: "
            f"T{race.first_tid} {race.first_kind.value} "
            f"@ip={race.first_ip} vs T{race.second.tid} "
            f"{race.second.kind.value} @ip={race.second.ip}"
        )
        if race.witness is not None:
            lines.append(f"      witness: {race.witness.describe()}")
    if not findings.races:
        lines.append("  no races reported.")
    return lines


def render_report(program: Program, result: DetectionResult) -> str:
    """The full per-run report text.

    The primary backend's findings form the main body, exactly as the
    historical FastTrack-only report (bit-identical for the default
    selection); additional backends get their own sections.
    """
    stats = result.replay.stats
    default_only = tuple(result.detectors) == _DEFAULT_SELECTION
    header = [
        f"=== ProRace report: {program.name} ===",
        f"samples: {stats.sampled}   reconstructed: {stats.recovered} "
        f"(fwd {stats.forward} / bwd {stats.backward} / "
        f"bb {stats.basicblock})   recovery ratio: "
        f"{stats.recovery_ratio:.1f}x",
        f"events analyzed: {result.events_processed}   "
        f"regeneration rounds: {result.regeneration_rounds}",
        f"replay: {stats.executed_steps} steps executed over "
        f"{stats.windows} windows",
    ]
    if not default_only:
        header.append(
            "detectors: " + ", ".join(result.detectors)
            + f" (primary: {result.detectors[0]})"
        )
    header.append(f"distinct races: {len(result.races)}")
    header.extend(render_degradation(result))
    header.extend(render_governor(result))
    header.extend(render_clock_health(result))
    header.append("")
    body = []
    for index, race in enumerate(result.races, start=1):
        body.append(f"[{index}] " + render_race(program, race))
        body.append("")
    if not result.races:
        body.append("no data races detected.")
    if not default_only:
        primary_witnesses = [
            race for race in result.races if race.witness is not None
        ]
        for race in primary_witnesses:
            body.append(f"witness for {race.address:#x} "
                        f"{race.pair}: {race.witness.describe()}")
        if primary_witnesses:
            body.append("")
        for name in result.detectors[1:]:
            findings = result.findings.get(name)
            if findings is None:
                continue
            body.extend(render_backend_section(program, findings))
            body.append("")
    return "\n".join(header + body)


def backend_to_dict(findings: DetectionFindings) -> Dict[str, object]:
    """One backend's findings as a JSON-ready dict, races and
    backend-specific fields (witnesses, sample budgets) included."""
    data = findings.to_dict()
    data["races"] = [
        {
            "address": race.address,
            "generation": race.var[1],
            "pair": list(race.pair),
            "first": {
                "tid": race.first_tid,
                "kind": race.first_kind.value,
                "ip": race.first_ip,
            },
            "second": {
                "tid": race.second.tid,
                "kind": race.second.kind.value,
                "ip": race.second.ip,
                "provenance": race.second.provenance,
            },
            "witness": (
                {
                    "total_steps": race.witness.total_steps,
                    "nodes_explored": race.witness.nodes_explored,
                    "steps": [
                        step.describe() for step in race.witness.steps
                    ],
                }
                if race.witness is not None else None
            ),
        }
        for race in findings.races
    ]
    return data


def to_json(program: Program, result: DetectionResult) -> str:
    """JSON form for dashboards / aggregation pipelines."""
    races = [
        {
            "address": race.address,
            "symbol": _symbol_for(program, race.address),
            "generation": race.var[1],
            "first": {
                "tid": race.first_tid,
                "kind": race.first_kind.value,
                "ip": race.first_ip,
            },
            "second": {
                "tid": race.second.tid,
                "kind": race.second.kind.value,
                "ip": race.second.ip,
                "provenance": race.second.provenance,
            },
        }
        for race in result.races
    ]
    stats = result.replay.stats
    payload = {
            "program": program.name,
            "races": races,
            "stats": {
                "sampled": stats.sampled,
                "recovered": stats.recovered,
                "recovery_ratio": stats.recovery_ratio,
                "events": result.events_processed,
                "regeneration_rounds": result.regeneration_rounds,
            },
            "replay_speed": {
                "windows": stats.windows,
                "executed_steps": stats.executed_steps,
                "steps_per_second": (
                    stats.executed_steps
                    / result.timings.reconstruction_seconds
                    if result.timings.reconstruction_seconds > 0
                    else 0.0
                ),
            },
            "timings_seconds": {
                "decode": result.timings.decode_seconds,
                "reconstruction": result.timings.reconstruction_seconds,
                "detection": result.timings.detection_seconds,
            },
            "degradation": {
                "degraded": result.degradation.degraded,
                "samples_dropped": result.degradation.samples_dropped,
                "gaps_crossed": result.degradation.gaps_crossed,
                "windows_aborted": result.degradation.windows_aborted,
                "sync_records_lost": result.degradation.sync_records_lost,
                "suppressed_accesses":
                    result.degradation.suppressed_accesses,
                "samples_unaligned": result.degradation.samples_unaligned,
                "threads_skipped": list(result.degradation.threads_skipped),
                "corrupted_sections":
                    list(result.degradation.corrupted_sections),
            },
    }
    if tuple(result.detectors) != _DEFAULT_SELECTION:
        # Present only for non-default detector selections, so default
        # FastTrack JSON stays byte-identical to previous releases
        # (same convention as the conditional "governor" key below).
        payload["detectors"] = list(result.detectors)
        payload["backends"] = {
            name: backend_to_dict(findings)
            for name, findings in result.findings.items()
        }
    deg = result.degradation
    if deg.governor_active:
        # Present only for governed runs, so ungoverned JSON stays
        # byte-identical to previous releases.
        payload["governor"] = {
            "epochs": deg.governor_epochs,
            "tier_transitions": deg.governor_tier_transitions,
            "pt_sheds": deg.governor_pt_sheds,
            "pt_bytes_shed": deg.governor_pt_bytes_shed,
            "hard_drop_bursts": deg.governor_hard_drop_bursts,
            "hard_dropped_samples": deg.governor_hard_dropped_samples,
            "watchdog_trips": deg.governor_watchdog_trips,
            "sync_stalls": deg.governor_sync_stalls,
            "reconciles": deg.governor_reconciles,
        }
    if deg.clock_declared or deg.timeline_rejections:
        # Present only when clock faults were declared or timestamps
        # misbehaved, so clean-trace JSON stays byte-identical.
        payload["clock_defects"] = {
            "skewed_cores": deg.clock_skewed_cores,
            "drifted_cores": deg.clock_drifted_cores,
            "steps": deg.clock_steps,
            "regressions": deg.clock_regressions,
            "tsc_perturbed": deg.tsc_perturbed,
            "timeline_rejections": deg.timeline_rejections,
            "reconciles": deg.tsc_reconciles,
        }
    if result.clock is not None:
        # Present only when reconciliation ran (--reconcile-clock).
        payload["clock"] = result.clock.to_dict()
    return json.dumps(payload, indent=2)


@dataclass
class FleetSummary:
    """Aggregates detection results across many runs (the datacenter
    analysis fleet of §3: many traced runs, one consolidated report)."""

    runs: int = 0
    runs_with_races: int = 0
    #: (address, ip pair) -> times seen.
    race_sites: Counter = field(default_factory=Counter)
    #: address -> a representative report.
    representatives: Dict[Tuple[int, Tuple[int, int]], RaceReport] = \
        field(default_factory=dict)

    def add(self, result: DetectionResult) -> None:
        self.runs += 1
        if result.races:
            self.runs_with_races += 1
        for race in result.races:
            key = (race.address, race.pair)
            self.race_sites[key] += 1
            self.representatives.setdefault(key, race)

    def render(self, program: Program) -> str:
        lines = [
            f"=== fleet summary: {program.name} ===",
            f"runs analyzed: {self.runs}   with races: "
            f"{self.runs_with_races}",
            f"distinct race sites: {len(self.race_sites)}",
            "",
        ]
        for (address, pair), count in self.race_sites.most_common():
            symbol = _symbol_for(program, address) or f"{address:#x}"
            lines.append(
                f"  {symbol:24s} ips {pair}  seen in {count}/{self.runs} "
                "runs"
            )
        return "\n".join(lines)


def render_confirmation(confirmation) -> str:
    """Render one confirmation pass (a
    :class:`~repro.confirm.ConfirmationReport`): the verdict of every
    reported race plus the conservation line.

    Duck-typed so this module needs no import of :mod:`repro.confirm`
    (report rendering stays dependency-light).
    """
    lines = [
        "=== race confirmation ===",
        f"races reported: {confirmation.races_reported}   "
        f"replays: {confirmation.replays_total}   "
        f"confirmed {confirmation.confirmed} / flaky {confirmation.flaky} "
        f"/ unconfirmed {confirmation.unconfirmed} "
        f"/ inapplicable {confirmation.inapplicable}",
    ]
    for verdict in confirmation.verdicts:
        detail = ""
        if verdict.fired_on is not None:
            detail = f"  fired on replay {verdict.fired_on}"
        elif verdict.verdict == "unconfirmed":
            detail = f"  ({verdict.attempts} replays, none fired)"
        if verdict.schedule_steps:
            detail += f"  [schedule: {verdict.schedule_steps} steps]"
        lines.append(f"  {verdict.race_key:24s} {verdict.label}{detail}")
    lines.append(
        "every reported race carries a verdict"
        if confirmation.conserves
        else "VERDICTS DO NOT CONSERVE: "
             f"{len(confirmation.verdicts)} verdicts for "
             f"{confirmation.races_reported} races"
    )
    if confirmation.races_reported and not confirmation.any_fired:
        lines.append(
            "no reported race could be made to fire: reports are "
            "unverified leads (exit code 8)"
        )
    return "\n".join(lines)
