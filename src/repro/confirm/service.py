"""The race confirmation service: every report gets a replay-backed
verdict.

For each distinct :class:`~repro.detector.events.RaceReport` the
service

1. plans a **full** witness schedule over the bundle's event stream —
   the ``(key, event)`` pairs of
   :meth:`~repro.analysis.pipeline.OfflinePipeline.events_for`, a view
   of the very merge the detectors ran on — with the shared
   :class:`~repro.detector.witness.WitnessPlanner` (the same search the
   predictive backend uses, un-truncated so it can be driven).  The
   schedule ends at the reported instance of the pair: the planner
   finds the second access at the report's stream position
   (:attr:`~repro.detector.events.RaceReport.index`);
2. re-executes the traced program on a fresh
   :class:`~repro.machine.machine.Machine` under schedule control —
   attempt 1 drives the exact witness schedule with a
   :class:`~repro.machine.controller.ScheduleController`; attempts 2
   and 3 are the deterministic **pair-targeting** fallback
   (:class:`~repro.machine.controller.PairTargetController`, forward
   then reversed access order) for value-dependent executions a
   recorded schedule cannot drive; attempts 4..retries perturb —
   seeded random scheduling slices on the witness schedule and derived
   machine seeds on the pair targeter;
3. classifies the race by what the controllers observed:

   * ``confirmed`` — a **deterministic** replay (exact schedule or
     seed-faithful pair targeting) made the race fire;
   * ``flaky(k-of-n)`` — only perturbed replays fired, in *k* of the
     *n* total;
   * ``unconfirmed`` — no replay within the retry budget made the
     race fire;
   * ``inapplicable`` — no feasible schedule exists in the planner's
     node budget, or the report's stream position does not hold the
     access it names (a report from another stream, or with index
     -1), so there is nothing to drive.

Replays run under :func:`repro.supervise.supervised_map` — per-replay
timeouts, crash isolation, bounded retries and quarantine — and every
seed (machine, perturbation) is derived with domain-tagged blake2b
hashes of (config seed, race key, attempt), so the whole confirmation
pass is deterministic: same seed + same schedules → bit-identical
verdicts and matched-event streams, across repeated runs and across
``--jobs`` values (results fold by input index).

A :class:`ConfirmationReport` carries one verdict per reported race —
the conservation law :attr:`ConfirmationReport.conserves` checks — and
maps to exit code 8 (:data:`~repro.errors.EXIT_UNCONFIRMED`) when races
were reported but none fired.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..detector.events import RaceReport, WitnessStep
from ..detector.witness import WitnessPlanner
from ..errors import (
    EXIT_OK,
    EXIT_UNCONFIRMED,
    QuarantinedWork,
)
from ..machine.controller import PairTargetController, ScheduleController
from ..machine.machine import Machine, MachineError
from ..machine.sync import SyncError
from ..supervise import SupervisorConfig, supervised_map

#: Replay attempts 1..N that are fully deterministic (exact witness
#: schedule, then pair targeting in both access orders); a race firing
#: on one of these is ``confirmed``, later (perturbed) attempts only
#: reach ``flaky``.
DETERMINISTIC_ATTEMPTS = 3


@dataclass(frozen=True)
class ConfirmConfig:
    """Policy knobs of one confirmation pass.

    Args:
        retries: total replays a race may consume before it is declared
            unconfirmed (attempt 1 drives the exact schedule, attempts
            2–3 deterministic pair targeting, attempts 4..retries
            seeded perturbation).
        seed: base seed; every machine/perturbation seed derives from
            it with a domain-tagged hash.
        machine_seed: scheduler seed of the replayed machine — pass the
            traced run's seed so free-running stretches take the same
            paths the trace took.
        num_cores / quantum / preempt_probability / max_instructions:
            machine parameters of the replay (match the traced run).
        max_nodes: witness-planner DFS budget per race.
        perturb_probability: per-slice chance of a random scheduling
            slice on retry attempts (flaky-interleaving search).
        step_budget: controller instructions per schedule step before a
            replay counts as diverged.
        suppress_schedules: testing hook — skip planning entirely, so
            every race is ``inapplicable`` (a run with races then exits
            8; CI asserts this path).
    """

    retries: int = 5
    seed: int = 0
    machine_seed: int = 0
    num_cores: int = 4
    quantum: int = 40
    preempt_probability: float = 0.02
    max_instructions: int = 20_000_000
    max_nodes: int = 20_000
    perturb_probability: float = 0.15
    step_budget: int = 4000
    suppress_schedules: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "seed": self.seed,
            "machine_seed": self.machine_seed,
            "perturb_probability": self.perturb_probability,
        }


def _derive_seed(base: int, race_key: str, attempt: int, domain: str) -> int:
    digest = hashlib.blake2b(
        f"{domain}|{base}|{race_key}|{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class RaceVerdict:
    """One race's replay-backed classification."""

    address: int
    pair: Tuple[int, int]
    verdict: str
    #: Replays actually executed.
    attempts: int = 0
    #: Replays in which the race fired.
    successes: int = 0
    #: 1-based attempt of the first firing replay (replays-to-confirm),
    #: or None.
    fired_on: Optional[int] = None
    #: Total steps of the planned schedule (0 when inapplicable).
    schedule_steps: int = 0
    #: blake2b hex digest of the first firing replay's matched-event
    #: stream (or of attempt 1's when nothing fired) — the determinism
    #: property compares these bit-for-bit.
    digest: str = ""

    @property
    def race_key(self) -> str:
        return f"{self.address:#x}:{self.pair[0]}-{self.pair[1]}"

    @property
    def fired(self) -> bool:
        return self.successes > 0

    @property
    def label(self) -> str:
        if self.verdict == "flaky":
            return f"flaky({self.successes}-of-{self.attempts})"
        return self.verdict

    def to_dict(self) -> Dict[str, object]:
        return {
            "race": self.race_key,
            "verdict": self.verdict,
            "label": self.label,
            "attempts": self.attempts,
            "successes": self.successes,
            "fired_on": self.fired_on,
            "schedule_steps": self.schedule_steps,
            "digest": self.digest,
        }


@dataclass(frozen=True)
class ConfirmationReport:
    """The verdict set of one confirmation pass.

    Conservation law: ``len(verdicts) == races_reported`` — every
    distinct reported race gets exactly one verdict, no more, no less.
    """

    verdicts: Tuple[RaceVerdict, ...] = ()
    races_reported: int = 0
    replays_total: int = 0
    config: Mapping[str, object] = field(default_factory=dict)

    @property
    def conserves(self) -> bool:
        return len(self.verdicts) == self.races_reported

    @property
    def confirmed(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == "confirmed")

    @property
    def flaky(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == "flaky")

    @property
    def unconfirmed(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == "unconfirmed")

    @property
    def inapplicable(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == "inapplicable")

    @property
    def any_fired(self) -> bool:
        return any(v.fired for v in self.verdicts)

    def exit_code(self) -> int:
        """0 when nothing was reported or something fired; 8 when races
        were reported but none could be made to fire."""
        if self.races_reported and not self.any_fired:
            return EXIT_UNCONFIRMED
        return EXIT_OK

    def to_dict(self) -> Dict[str, object]:
        return {
            "races_reported": self.races_reported,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "counts": {
                "confirmed": self.confirmed,
                "flaky": self.flaky,
                "unconfirmed": self.unconfirmed,
                "inapplicable": self.inapplicable,
            },
            "replays_total": self.replays_total,
            "conserves": self.conserves,
            "config": dict(self.config),
        }


# ---------------------------------------------------------------------------
# The per-replay work function (module-level: picklable for process
# isolation under the supervised runtime).
# ---------------------------------------------------------------------------


def _replay_one(item: Dict[str, object]) -> Dict[str, object]:
    """Execute one schedule-controlled replay; returns what the
    controller observed.  Deterministic per item.

    The run ends when the controller deactivates, so an error can only
    come before the verdict or in the instruction that reached it; a
    fire stands either way (see :mod:`repro.machine.controller`)."""
    if item["mode"] == "pair":
        controller = PairTargetController(
            item["first_ip"],
            item["second_ip"],
            item["address"],
            step_budget=item["step_budget"],
        )
    else:
        steps: Sequence[WitnessStep] = item["steps"]  # type: ignore
        controller = ScheduleController(
            steps,
            perturb_seed=item["perturb_seed"],
            perturb_probability=item["perturb_probability"],
            step_budget=item["step_budget"],
        )
    machine = Machine(
        item["program"],
        num_cores=item["num_cores"],
        seed=item["machine_seed"],
        quantum=item["quantum"],
        preempt_probability=item["preempt_probability"],
        max_instructions=item["max_instructions"],
        controller=controller,
    )
    error = ""
    try:
        machine.run()
    except (MachineError, SyncError) as exc:
        error = str(exc)
    digest = hashlib.blake2b(
        repr(controller.observed).encode(), digest_size=8
    ).hexdigest()
    return {
        "fired": controller.fired,
        "completed": controller.completed,
        "diverged": controller.diverged,
        "matched": controller.cursor,
        "digest": digest,
        "error": error,
    }


# ---------------------------------------------------------------------------
# The confirmation pass
# ---------------------------------------------------------------------------


def _distinct_reports(races: Sequence[RaceReport]) -> List[RaceReport]:
    seen = set()
    distinct = []
    for report in races:
        key = (report.address, report.pair)
        if key not in seen:
            seen.add(key)
            distinct.append(report)
    return distinct


def _run_replays(items, jobs: int,
                 supervisor: Optional[SupervisorConfig]):
    """Supervised fan-out over replay items; quarantined replays come
    back as None results (counted as non-firing attempts)."""
    if not items:
        return []
    config = supervisor if supervisor is not None else SupervisorConfig()
    try:
        results, _ledger = supervised_map(
            _replay_one, items, jobs=jobs, config=config,
        )
    except QuarantinedWork as exc:
        results = exc.partial or [None] * len(items)
    return results


def confirm_races(
    program,
    races: Sequence[RaceReport],
    events,
    config: Optional[ConfirmConfig] = None,
    jobs: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
) -> ConfirmationReport:
    """Confirm every distinct race in *races* by schedule-controlled
    replay of *program*.

    Args:
        program: the traced :class:`~repro.isa.program.Program`.
        races: the detector's reports (any backend), each naming its
            second access by its position in *events*.
        events: the bundle's merged event stream, the
            ``(sort_key, event)`` pairs
            :meth:`~repro.analysis.pipeline.OfflinePipeline.events_for`
            returns.
        config: confirmation policy (:class:`ConfirmConfig`).
        jobs: worker processes for the replay batches; at one job the
            replays run inline unless *supervisor* sets a task timeout,
            which needs a killable worker.
        supervisor: optional supervised-runtime policy (timeouts, crash
            isolation); defaults to :class:`SupervisorConfig` defaults.
    """
    cfg = config if config is not None else ConfirmConfig()
    distinct = _distinct_reports(races)

    plans: Dict[Tuple[int, Tuple[int, int]], object] = {}
    if not cfg.suppress_schedules and distinct:
        planner = WitnessPlanner([event for _key, event in events],
                                 max_nodes=cfg.max_nodes, tail=None)
        for report in distinct:
            key = (report.address, report.pair)
            schedule = planner.schedule_for(report)
            if schedule is not None and not schedule.truncated:
                plans[key] = schedule

    def base_item() -> Dict[str, object]:
        return {
            "program": program,
            "num_cores": cfg.num_cores,
            "quantum": cfg.quantum,
            "preempt_probability": cfg.preempt_probability,
            "max_instructions": cfg.max_instructions,
            "step_budget": cfg.step_budget,
        }

    def attempt_item(report: RaceReport, schedule,
                     attempt: int) -> Optional[Dict[str, object]]:
        """The replay spec of one numbered attempt, or None when that
        attempt kind is impossible for this report.

        Attempt 1 drives the exact witness schedule; attempts 2 and 3
        are deterministic pair targeting (forward, then reversed
        access order); later attempts alternate seeded perturbation of
        the schedule (even) with reseeded pair targeting (odd).
        """
        race_key = f"{report.address:#x}:{report.pair[0]}-{report.pair[1]}"
        item = base_item()
        first_ip, second_ip = report.pair
        can_pair = first_ip >= 0  # Unknown first ip: nothing to target.
        if attempt == 1:
            item.update(
                mode="schedule",
                steps=schedule.steps,
                machine_seed=cfg.machine_seed,
                perturb_seed=_derive_seed(cfg.seed, race_key, 1, "perturb"),
                perturb_probability=0.0,
            )
        elif attempt <= DETERMINISTIC_ATTEMPTS:
            if not can_pair:
                return None
            forward = attempt == 2
            item.update(
                mode="pair",
                first_ip=first_ip if forward else second_ip,
                second_ip=second_ip if forward else first_ip,
                address=report.address,
                machine_seed=cfg.machine_seed,
            )
        elif attempt % 2 == 0 or not can_pair:
            item.update(
                mode="schedule",
                steps=schedule.steps,
                machine_seed=_derive_seed(cfg.machine_seed, race_key,
                                          attempt, "machine"),
                perturb_seed=_derive_seed(cfg.seed, race_key, attempt,
                                          "perturb"),
                perturb_probability=cfg.perturb_probability,
            )
        else:
            forward = attempt % 4 == 1
            item.update(
                mode="pair",
                first_ip=first_ip if forward else second_ip,
                second_ip=second_ip if forward else first_ip,
                address=report.address,
                machine_seed=_derive_seed(cfg.machine_seed, race_key,
                                          attempt, "machine"),
            )
        return item

    # Pass 1: every planned race replays its exact schedule once.
    planned = [r for r in distinct
               if (r.address, r.pair) in plans]
    first_items = [
        attempt_item(report, plans[(report.address, report.pair)], 1)
        for report in planned
    ]
    first_results = _run_replays(first_items, jobs, supervisor)

    # Pass 2: unfired races walk the remaining attempt ladder —
    # deterministic pair targeting first, then seeded perturbation.
    retry_specs: List[Tuple[int, int]] = []  # (planned index, attempt)
    retry_items: List[Dict[str, object]] = []
    for index, result in enumerate(first_results):
        if result is not None and result.get("fired"):
            continue
        report = planned[index]
        schedule = plans[(report.address, report.pair)]
        for attempt in range(2, cfg.retries + 1):
            item = attempt_item(report, schedule, attempt)
            if item is None:
                continue
            retry_specs.append((index, attempt))
            retry_items.append(item)
    retry_results = _run_replays(retry_items, jobs, supervisor)
    retries_of: Dict[int, List[Tuple[int, Optional[dict]]]] = {}
    for (index, attempt), result in zip(retry_specs, retry_results):
        retries_of.setdefault(index, []).append((attempt, result))

    # Fold into verdicts, preserving report order.
    verdicts: List[RaceVerdict] = []
    replays_total = 0
    planned_index = {id(report): i for i, report in enumerate(planned)}
    for report in distinct:
        key = (report.address, report.pair)
        schedule = plans.get(key)
        if schedule is None:
            verdicts.append(RaceVerdict(
                address=report.address, pair=report.pair,
                verdict="inapplicable",
            ))
            continue
        index = planned_index[id(report)]
        outcomes: List[Tuple[int, Optional[dict]]] = [
            (1, first_results[index])
        ]
        outcomes.extend(retries_of.get(index, []))
        replays_total += len(outcomes)
        successes = sum(
            1 for _, r in outcomes if r is not None and r.get("fired")
        )
        fired_on = next(
            (attempt for attempt, r in outcomes
             if r is not None and r.get("fired")),
            None,
        )
        fired_result = next(
            (r for attempt, r in outcomes if attempt == fired_on), None
        )
        if fired_result is not None:
            digest = fired_result["digest"]
        elif outcomes[0][1] is not None:
            digest = outcomes[0][1]["digest"]
        else:
            digest = ""
        if fired_on is not None and fired_on <= DETERMINISTIC_ATTEMPTS:
            verdict = "confirmed"
        elif successes > 0:
            verdict = "flaky"
        else:
            verdict = "unconfirmed"
        verdicts.append(RaceVerdict(
            address=report.address, pair=report.pair, verdict=verdict,
            attempts=len(outcomes), successes=successes,
            fired_on=fired_on, schedule_steps=schedule.total_steps,
            digest=digest,
        ))

    return ConfirmationReport(
        verdicts=tuple(verdicts),
        races_reported=len(distinct),
        replays_total=replays_total,
        config=cfg.to_dict(),
    )
