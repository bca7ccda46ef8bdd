"""The repro.api facade: SimConfig validation, scenario runs, the
acceptance determinism criteria, and the deprecation shims on the old
entry points."""

import warnings

import pytest

from repro import (
    MetricsRegistry,
    RunReport,
    SimConfig,
    Simulation,
    build_testbed,
)
from repro.scenario import Scenario
from repro.simulation.live import LiveZone

from conftest import MIX_AND_SP_CRASH


class TestSimConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            SimConfig("live")  # noqa: keyword-only by design

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            SimConfig(scenario="wat")
        # The fault-driven mode is a Scenario now, not a mode name.
        with pytest.raises(ValueError):
            SimConfig(scenario="chaos")

    def test_rejects_impossible_call_pairs(self):
        with pytest.raises(ValueError):
            SimConfig(n_clients=2, call_pairs=2)

    def test_rejects_wiretap_outside_live_runs(self):
        # Only the live run reads it; elsewhere it was dropped
        # silently (a scenario declares its tap in [adversary]).
        with pytest.raises(ValueError, match="adversary"):
            SimConfig(scenario="testbed", wiretap=True)
        with pytest.raises(ValueError, match="adversary"):
            SimConfig(scenario_def=Scenario(name="tapped", seed=1),
                      wiretap=True)
        assert SimConfig(wiretap=True).wiretap is True


class TestLiveScenario:
    @pytest.fixture(scope="class")
    def report(self):
        return Simulation(SimConfig(seed=7, call_pairs=2)).run(rounds=50)

    def test_runs_and_reports(self, report):
        assert isinstance(report, RunReport)
        assert report.rounds_run == 50
        assert report.detail["clients_in_call"] == 4

    def test_metrics_cover_links_and_cells(self, report):
        assert report.counter_value(
            "herd_link_bytes_total",
            {"link": "zone-EU/sp-0->zone-EU/mix-0"}) > 0
        payload = report.counter_value("herd_mix_cells_total",
                                       {"kind": "payload"})
        chaff = report.counter_value("herd_mix_cells_total",
                                     {"kind": "chaff"})
        control = report.counter_value("herd_mix_cells_total",
                                       {"kind": "control"})
        # Unobservability: one cell per enabled channel per round.
        assert payload + chaff + control == 50 * 4
        assert payload > 0 and chaff > 0

    def test_trace_has_call_spans(self, report):
        setups = [e for e in report.trace_events
                  if e.name == "call_setup" and e.phase == "end"]
        assert len(setups) == 2

    def test_prometheus_dump(self, report):
        text = report.to_prometheus()
        assert "herd_link_bytes_total{" in text
        assert 'herd_mix_cells_total{kind="chaff"}' in text

    def test_simulation_is_one_shot(self):
        sim = Simulation(SimConfig(n_clients=4, call_pairs=0))
        sim.run(rounds=1)
        with pytest.raises(RuntimeError):
            sim.run(rounds=1)


def test_acceptance_identical_seeds_identical_outputs(tmp_path):
    """The PR's acceptance criterion: two identically-seeded runs give
    identical metrics snapshots and byte-identical JSONL traces."""
    paths = [str(tmp_path / f"run{i}.jsonl") for i in (1, 2)]
    reports = [
        Simulation(SimConfig(seed=7, trace_path=p)).run(rounds=50)
        for p in paths
    ]
    assert reports[0].metrics == reports[1].metrics
    blobs = [open(p, "rb").read() for p in paths]
    assert blobs[0] == blobs[1] and blobs[0]
    assert reports[0].trace_events == reports[1].trace_events


def test_different_seed_changes_trace(tmp_path):
    runs = [Simulation(SimConfig(seed=s, call_pairs=2)).run(rounds=30)
            for s in (1, 2)]
    assert runs[0].metrics != runs[1].metrics or \
        runs[0].trace_events != runs[1].trace_events


class TestTestbedScenario:
    def test_end_to_end_frames(self):
        report = Simulation(SimConfig(
            scenario="testbed", seed=3, n_clients=4,
            call_pairs=2)).run(rounds=10)
        # 2 calls x 2 directions x 10 rounds, minus nothing (lossless).
        assert report.counter_value("herd_e2e_frames_total") == 40
        assert report.detail["frames_delivered"] == 40


class TestChaosScenario:
    SCENARIO = Scenario(name="chaos", seed=11, faults=MIX_AND_SP_CRASH)

    def test_chaos_produces_fault_metrics(self):
        report = Simulation(SimConfig(
            scenario_def=self.SCENARIO)).run()
        assert report.scenario == "scenario"
        assert report.rounds_run > 0
        assert report.counter_value(
            "herd_fault_events_total",
            {"action": "injected", "kind": "mix_crash"}) == 1
        assert report.detail.plan_signature  # the ScenarioOutcome

    def test_until_overrides_horizon(self):
        report = Simulation(SimConfig(
            scenario_def=self.SCENARIO)).run(until=1.0)
        # 1 s horizon at 50 ms rounds, before any fault fires.
        assert report.rounds_run <= 22
        assert report.counter_value(
            "herd_fault_events_total",
            {"action": "injected", "kind": "mix_crash"}) == 0

    @pytest.mark.parametrize("scenario", ["live", "testbed"])
    def test_until_rejected_outside_scenario_runs(self, scenario):
        # until= is a horizon in virtual seconds: neither a round
        # count (live) nor something to drop silently (testbed).
        sim = Simulation(SimConfig(scenario=scenario, n_clients=4))
        with pytest.raises(ValueError, match="rounds="):
            sim.run(until=2.0)


class TestDeprecationShims:
    """The PR-3 positional/alias shims completed their deprecation
    cycle and are removed: the facade API is keyword-only.  These
    tests pin the *removal* — the old spellings now fail loudly with
    ``TypeError``, not silently misbind."""

    def test_livezone_positional_removed(self):
        with pytest.raises(TypeError):
            LiveZone(8, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zone = LiveZone(n_clients=8, n_channels=4)
        assert len(zone.clients) == 8

    def test_build_testbed_positional_seed_removed(self):
        specs = [("zone-X", "dc-x", 1)]
        with pytest.raises(TypeError):
            build_testbed(specs, 99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bed = build_testbed(specs, seed=99)
        assert "zone-X/mix-0" in bed.mixes


def test_run_rejects_rounds_and_until_together():
    with pytest.raises(ValueError):
        Simulation(SimConfig()).run(rounds=10, until=5.0)


def test_metrics_registry_reexported():
    assert MetricsRegistry().counter("x").value == 0.0
