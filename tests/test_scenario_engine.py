"""Scenario engine end-to-end: graceful degradation under OVERLOAD,
client backpressure under DIRECTORY_STALL, the facade's scenario_def
plumbing, and report determinism (§10)."""

import pytest

from repro.api import SimConfig, Simulation
from repro.faults.plan import FaultKind, FaultSpec
from repro.scenario import (
    Adversary,
    ChurnEvent,
    Scenario,
    SurvivalCriteria,
    Workload,
    ZoneShape,
    run_scenario,
)
from repro.scenario.engine import execute
from repro.scenario.report import evaluate_criteria


def _small_zone(**kwargs):
    shape = dict(n_clients=8, n_channels=4, n_sps=2, k=3,
                 n_direct_clients=2)
    shape.update(kwargs)
    return ZoneShape(**shape)


class TestOverloadDegradation:
    def test_overload_sheds_and_calls_survive(self):
        scenario = Scenario(
            name="overload-unit", horizon_s=3.0,
            zone=_small_zone(),
            workload=Workload(call_pairs=2, call_start_s=0.4),
            faults=(FaultSpec(kind=FaultKind.OVERLOAD, at_s=1.0,
                              target="zone", duration_s=1.0,
                              capacity_fraction=0.0),))
        outcome = execute(scenario)
        # Backpressure engaged: payload cells were deferred (queued at
        # the clients), none dropped, and both calls stayed up.
        assert outcome.shedding_engaged
        assert outcome.cells_deferred > 0
        assert outcome.shed_stats["windows"] == 1
        assert outcome.call_survival_rate == 1.0
        assert not outcome.invariant_violations
        # The shed window is visible on the timeline with its totals.
        sheds = [e for e in outcome.timeline if e.action == "shed"]
        assert len(sheds) == 1 and "deferred=" in sheds[0].detail

    def test_voice_resumes_after_overload_window(self):
        scenario = Scenario(
            name="overload-resume", horizon_s=3.0,
            zone=_small_zone(),
            workload=Workload(call_pairs=1, call_start_s=0.4),
            faults=(FaultSpec(kind=FaultKind.OVERLOAD, at_s=1.0,
                              target="zone", duration_s=0.8,
                              capacity_fraction=0.0),))
        full = execute(scenario)
        # A full-backpressure window costs throughput but not the
        # call: legs stay established and frames flow again after.
        assert full.call_legs_established == 2
        assert full.cells_deferred > 0


class TestDirectoryStall:
    def test_rejoins_back_off_through_stall(self):
        scenario = Scenario(
            name="stall-unit", horizon_s=6.0,
            zone=_small_zone(n_direct_clients=4),
            workload=Workload(call_pairs=1, call_start_s=0.4),
            faults=(
                FaultSpec(kind=FaultKind.DIRECTORY_STALL, at_s=1.4,
                          target="zone-ctl", duration_s=2.0),
                FaultSpec(kind=FaultKind.MIX_CRASH, at_s=1.5,
                          target="zone-ctl/mix-0", duration_s=4.0,
                          detection_delay_s=0.5),
            ))
        outcome = execute(scenario)
        # Orphans retried against the stalled directory (client
        # backpressure), then landed once it recovered: multiple
        # attempts, everyone back in.
        assert outcome.rejoins and outcome.all_rejoined
        assert all(r.attempts >= 2 for r in outcome.rejoins)
        assert max(r.latency_s for r in outcome.rejoins) > 1.0
        assert not outcome.invariant_violations

    def test_stall_without_recovery_gives_up(self):
        scenario = Scenario(
            name="stall-forever", horizon_s=4.0,
            zone=_small_zone(n_direct_clients=4),
            workload=Workload(call_pairs=0),
            faults=(
                FaultSpec(kind=FaultKind.DIRECTORY_STALL, at_s=0.5,
                          target="zone-ctl", duration_s=30.0),
                FaultSpec(kind=FaultKind.MIX_CRASH, at_s=0.6,
                          target="zone-ctl/mix-0", duration_s=30.0,
                          detection_delay_s=0.5),
            ))
        outcome = execute(scenario)
        assert outcome.rejoins and not outcome.all_rejoined
        failures = evaluate_criteria(
            SurvivalCriteria(require_all_rejoined=True), outcome)
        assert any("re-joined" in f for f in failures)


class TestWorkloadsAndChurn:
    def test_poisson_workload_counts_calls(self):
        scenario = Scenario(
            name="poisson-unit", horizon_s=4.0,
            zone=_small_zone(),
            workload=Workload(kind="poisson", call_pairs=0,
                              arrival_rate_per_s=2.0,
                              call_hold_s=0.8))
        outcome = execute(scenario)
        assert outcome.calls_started > 0
        assert outcome.calls_completed > 0
        assert outcome.calls_started >= outcome.calls_completed

    def test_poisson_arrivals_helper_is_deterministic(self):
        from repro.workload.arrivals import poisson_arrival_times
        a = poisson_arrival_times(2.0, 0.3, 4.0, seed=7)
        b = poisson_arrival_times(2.0, 0.3, 4.0, seed=7)
        assert a == b and a  # bit-identical for equal seeds
        assert all(0.3 < t < 4.0 for t in a)
        assert a == sorted(a)
        assert a != poisson_arrival_times(2.0, 0.3, 4.0, seed=8)
        with pytest.raises(ValueError):
            poisson_arrival_times(0.0, 0.3, 4.0, seed=7)

    def test_trace_replay_arrivals_bridge(self):
        from repro.workload.arrivals import arrival_times_from_trace
        from repro.workload.cdr import CallRecord, CallTrace
        trace = CallTrace([
            CallRecord(caller=1, callee=2, start=10.0, duration=5.0),
            CallRecord(caller=3, callee=4, start=12.0, duration=5.0),
            CallRecord(caller=5, callee=6, start=90.0, duration=5.0),
        ])
        times = arrival_times_from_trace(trace, 10.0, 20.0,
                                         time_scale=0.5)
        assert times == [0.0, 1.0]  # shifted to 0, scaled, windowed

    def test_churn_events_tracked(self):
        scenario = Scenario(
            name="churn-unit", horizon_s=3.0,
            zone=_small_zone(n_direct_clients=3),
            workload=Workload(call_pairs=0),
            churn=(ChurnEvent(at_s=0.5, action="client_join", count=2),
                   ChurnEvent(at_s=1.5, action="client_leave")))
        outcome = execute(scenario)
        assert outcome.churn_stats["joined"] == 2
        assert outcome.churn_stats["left"] == 1


class TestFacadePlumbing:
    def test_scenario_def_promotes_scenario_kind(self):
        cfg = SimConfig(scenario_def=Scenario(name="promo"))
        assert cfg.scenario == "scenario"

    def test_scenario_kind_requires_definition(self):
        with pytest.raises(ValueError, match="scenario_def"):
            SimConfig(scenario="scenario")

    def test_until_truncates_horizon(self):
        scenario = Scenario(name="short", horizon_s=6.0,
                            zone=_small_zone(),
                            workload=Workload(call_pairs=1,
                                              call_start_s=0.2))
        report = Simulation(SimConfig(
            scenario_def=scenario)).run(until=1.0)
        assert report.detail.rounds_run == 20  # 1.0s / 0.05s


class TestScenarioReportDeterminism:
    SCENARIO = Scenario(
        name="report-unit", horizon_s=3.0,
        zone=_small_zone(),
        workload=Workload(call_pairs=1, call_start_s=0.4),
        faults=(FaultSpec(kind=FaultKind.OVERLOAD, at_s=1.0,
                          target="zone", duration_s=1.0,
                          capacity_fraction=0.0),),
        adversary=Adversary(kind="wiretap"),
        criteria=SurvivalCriteria(min_call_survival_rate=1.0,
                                  require_shedding=True,
                                  min_call_legs_established=2))

    def test_report_passes_and_pins_key_across_engines(self):
        event = run_scenario(self.SCENARIO, execution="event")
        v2 = run_scenario(self.SCENARIO, execution="batch-v2")
        assert event.passed and v2.passed
        assert event.determinism_key == v2.determinism_key
        assert event.scenario_signature == v2.scenario_signature
        artifact = event.to_artifact_dict()
        assert artifact["passed"] is True
        assert artifact["survival"]["cells_deferred"] > 0

    def test_failed_criteria_surface_in_report(self):
        import dataclasses
        strict = dataclasses.replace(
            self.SCENARIO, criteria=SurvivalCriteria(
                min_call_legs_established=99))
        report = run_scenario(strict)
        assert not report.passed
        assert any("99" in f for f in report.criteria_failures)
