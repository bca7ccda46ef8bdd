"""Scenario reports: survival metrics, criteria gating, determinism.

:class:`ScenarioReport` extends the facade's
:class:`~repro.api.RunReport` (same metrics snapshot / trace surface)
with the scenario's survival metrics, the evaluated
:class:`~repro.scenario.model.SurvivalCriteria`, and a
``determinism_key`` — a content hash over every engine-invariant part
of the outcome.  The key is the §9/§10 contract in one string: the
same scenario and seed produce the same key on every registered
engine (``event``, ``batch``, ``batch-v2``, ``asyncio``), and the
CLI / CI corpus job fails when they diverge.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.api import RunReport, SimConfig, Simulation
from repro.scenario.engine import ScenarioOutcome
from repro.scenario.model import Scenario, SurvivalCriteria


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def outcome_fingerprint(outcome: ScenarioOutcome,
                        metrics_json: str) -> str:
    """Hash of every engine-invariant part of an outcome.

    The wiretap's *observations* are included (byte-identical streams
    are the adversary-facing half of the equivalence contract); its
    scheduling cost stats are not — those are the part of a run that
    is allowed to differ per engine.
    """
    wiretap_digest = None
    if outcome.wiretap is not None:
        wiretap_digest = hashlib.sha256(_canonical(
            outcome.wiretap["observations"]).encode()).hexdigest()
    payload = {
        "plan_signature": outcome.plan_signature,
        "timeline": [(e.time_s, e.action, e.kind, e.target, e.detail)
                     for e in outcome.timeline],
        "events_processed": outcome.events_processed,
        "rounds_run": outcome.rounds_run,
        "call_legs_established": outcome.call_legs_established,
        # Failover records carry process-global numeric ids, so they
        # are deliberately summarized channel-wise here; the timeline
        # already pins each failover to a client id and virtual time.
        "failovers": sorted(
            (r.old_channel,
             -1 if r.new_channel is None else r.new_channel,
             bool(r.survived))
            for r in outcome.failovers),
        "rejoins": [(r.client_id, round(r.orphaned_at_s, 9),
                     None if r.rejoined_at_s is None
                     else round(r.rejoined_at_s, 9), r.attempts)
                    for r in sorted(outcome.rejoins,
                                    key=lambda r: r.client_id)],
        "post_failover_voice": sorted(
            outcome.post_failover_voice.items()),
        "blacklisted_sps": list(outcome.blacklisted_sps),
        "shed_stats": outcome.shed_stats,
        "calls": [outcome.calls_started, outcome.calls_completed,
                  outcome.calls_blocked],
        "churn_stats": outcome.churn_stats,
        "wiretap_observations": wiretap_digest,
        "invariant_violations": list(outcome.invariant_violations),
        "metrics": hashlib.sha256(
            metrics_json.encode()).hexdigest(),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def evaluate_criteria(criteria: SurvivalCriteria,
                      outcome: ScenarioOutcome) -> List[str]:
    """Which survival criteria the outcome failed (empty = pass)."""
    failures = []
    rate = outcome.call_survival_rate
    if rate < criteria.min_call_survival_rate:
        failures.append(
            f"call survival rate {rate:.2f} below required "
            f"{criteria.min_call_survival_rate:.2f}")
    if criteria.max_dropped_failovers is not None and \
            len(outcome.dropped_failovers) > \
            criteria.max_dropped_failovers:
        failures.append(
            f"{len(outcome.dropped_failovers)} dropped failover(s), "
            f"allowed {criteria.max_dropped_failovers}")
    if criteria.require_all_rejoined and not outcome.all_rejoined:
        pending = [r.client_id for r in outcome.rejoins
                   if r.rejoined_at_s is None]
        failures.append(
            "not all orphans re-joined" +
            (f" (pending: {', '.join(pending)})" if pending
             else " (no re-joins happened at all)"))
    if criteria.max_rejoin_latency_s is not None:
        worst = max(outcome.rejoin_latencies, default=0.0)
        if worst > criteria.max_rejoin_latency_s:
            failures.append(
                f"worst re-join latency {worst:.3f}s exceeds "
                f"{criteria.max_rejoin_latency_s:.3f}s")
    if criteria.require_shedding and not outcome.shedding_engaged:
        failures.append(
            "shedding never engaged (no payload cells deferred)")
    for sp_id in criteria.require_blacklist:
        if sp_id not in outcome.blacklisted_sps:
            failures.append(f"SP {sp_id} was not blacklisted "
                            f"(blacklisted: "
                            f"{list(outcome.blacklisted_sps) or '[]'})")
    if outcome.call_legs_established < \
            criteria.min_call_legs_established:
        failures.append(
            f"{outcome.call_legs_established} call leg(s) "
            f"established, required "
            f"{criteria.min_call_legs_established}")
    return failures


class ScenarioReport(RunReport):
    """A :class:`RunReport` plus the scenario's survival verdict.

    The execution engine lives in the inherited :attr:`~repro.api
    .RunReport.engine` field — the same vocabulary as the
    ``--engine`` CLI flag."""

    __slots__ = ("name", "scenario_signature",
                 "plan_signature", "survival", "timeline",
                 "criteria_failures", "invariant_violations",
                 "determinism_key")

    def __init__(self, *, scenario_def: Scenario, engine: str,
                 base: RunReport):
        outcome: ScenarioOutcome = base.detail
        super().__init__(scenario=base.scenario, seed=base.seed,
                         rounds_run=base.rounds_run,
                         metrics=base.metrics,
                         trace_events=base.trace_events,
                         trace_path=base.trace_path, detail=outcome,
                         engine=engine)
        self.name = scenario_def.name
        self.scenario_signature = scenario_def.signature()
        self.plan_signature = outcome.plan_signature
        #: The survival metrics the criteria gate on, flattened.
        self.survival = {
            "call_survival_rate": outcome.call_survival_rate,
            "survived_failovers": len(outcome.survived_failovers),
            "dropped_failovers": len(outcome.dropped_failovers),
            "rejoin_latencies_s": [round(v, 9) for v in
                                   outcome.rejoin_latencies],
            "all_rejoined": outcome.all_rejoined,
            "call_legs_established": outcome.call_legs_established,
            "calls_started": outcome.calls_started,
            "calls_completed": outcome.calls_completed,
            "calls_blocked": outcome.calls_blocked,
            "cells_deferred": outcome.cells_deferred,
            "shed_windows": outcome.shed_stats.get("windows", 0),
            "blacklisted_sps": list(outcome.blacklisted_sps),
            "churn": dict(outcome.churn_stats),
        }
        self.timeline = [(e.time_s, e.action, e.kind, e.target,
                          e.detail) for e in outcome.timeline]
        self.criteria_failures = tuple(
            evaluate_criteria(scenario_def.criteria, outcome))
        self.invariant_violations = outcome.invariant_violations
        self.determinism_key = outcome_fingerprint(
            outcome, self.to_json(indent=0))

    @property
    def passed(self) -> bool:
        """Did the scenario meet its criteria with no invariant
        violations?"""
        return not self.criteria_failures and \
            not self.invariant_violations

    def to_artifact_dict(self) -> Dict[str, Any]:
        """The JSON artifact the CI corpus job uploads per run.

        The optional ``net`` section (real-network plane only) is
        host-time data: it sits *beside* the determinism surface —
        ``determinism_key`` is computed before and without it, so two
        artifacts from the same seed differ only in that section."""
        artifact = {
            "name": self.name,
            "engine": self.engine,
            "seed": self.seed,
            "scenario_signature": self.scenario_signature,
            "plan_signature": self.plan_signature,
            "determinism_key": self.determinism_key,
            "rounds_run": self.rounds_run,
            "survival": self.survival,
            "criteria_failures": list(self.criteria_failures),
            "invariant_violations": list(self.invariant_violations),
            "passed": self.passed,
            "timeline": self.timeline,
        }
        outcome: ScenarioOutcome = self.detail
        if outcome.net is not None:
            artifact["net"] = outcome.net
        return artifact

    def __repr__(self) -> str:
        verdict = "passed" if self.passed else \
            f"FAILED ({len(self.criteria_failures) + len(self.invariant_violations)})"
        # The determinism key is a public content hash, not key
        # material (HL004's taint source excludes determinism_*).
        fingerprint = self.determinism_key[:12]
        return (f"ScenarioReport(name={self.name!r}, "
                f"engine={self.engine!r}, seed={self.seed}, "
                f"{verdict}, key={fingerprint}...)")


def run_scenario(scenario: Scenario, *, execution: str = "event",
                 net_processes: bool = False,
                 trace_path: Optional[str] = None,
                 trace_buffer: int = 0) -> ScenarioReport:
    """Run one scenario through the :class:`Simulation` facade.

    ``execution`` is any engine name registered with
    :mod:`repro.execution`; ``net_processes`` applies to the
    real-network ``asyncio`` plane (receive endpoints in a separate
    worker process)."""
    sim = Simulation(SimConfig(scenario="scenario",
                               scenario_def=scenario,
                               seed=scenario.seed,
                               execution=execution,
                               net_processes=net_processes,
                               trace_path=trace_path,
                               trace_buffer=trace_buffer))
    base = sim.run(until=scenario.horizon_s)
    return ScenarioReport(scenario_def=scenario, engine=execution,
                          base=base)
