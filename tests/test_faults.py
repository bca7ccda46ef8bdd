"""Tests: fault plans, the injector, and fault-scenario determinism."""

import pytest

from repro.core.blacklist import SPMonitor
from repro.core.directory import DirectoryStalledError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.netsim.engine import EventLoop
from repro.scenario import Scenario, ZoneShape, execute, run_scenario

from conftest import (
    MIX_AND_SP_CRASH,
    MIX_CRASH_AND_SP_DEGRADE,
    build_testbed,
)


def _bed():
    return build_testbed(zone_specs=[("zone-EU", "dc-eu", 2)])


def _small_scenario(faults=MIX_AND_SP_CRASH, seed=20150817):
    return Scenario(name="chaos", seed=seed, horizon_s=6.0,
                    round_interval_s=0.05,
                    zone=ZoneShape(n_clients=8, n_direct_clients=4),
                    faults=faults)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.MIX_CRASH, at_s=-1.0, target="m")
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.MIX_CRASH, at_s=0.0, target="")
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.MIX_CRASH, at_s=0.0, target="m",
                      duration_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.LOSS_BURST, at_s=0.0, target="m",
                      duration_s=1.0, loss=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.JITTER_BURST, at_s=0.0, target="m",
                      duration_s=1.0, jitter_ms=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.MIX_CRASH, at_s=0.0, target="m",
                      detection_delay_s=-0.5)

    def test_degradations_require_duration(self):
        for kind in (FaultKind.LINK_DEGRADE, FaultKind.LINK_PARTITION,
                     FaultKind.LOSS_BURST, FaultKind.JITTER_BURST):
            with pytest.raises(ValueError):
                FaultSpec(kind=kind, at_s=0.0, target="sp")

    def test_crash_duration_optional(self):
        spec = FaultSpec(kind=FaultKind.SP_CRASH, at_s=1.0, target="sp")
        assert spec.duration_s is None


class TestFaultPlan:
    def test_specs_sorted_by_time(self):
        late = FaultSpec(kind=FaultKind.MIX_CRASH, at_s=5.0, target="m")
        early = FaultSpec(kind=FaultKind.SP_CRASH, at_s=1.0, target="s")
        plan = FaultPlan([late, early])
        assert [s.at_s for s in plan] == [1.0, 5.0]
        assert len(plan) == 2

    def test_signature_is_content_addressed(self):
        spec = FaultSpec(kind=FaultKind.MIX_CRASH, at_s=1.0, target="m")
        other = FaultSpec(kind=FaultKind.MIX_CRASH, at_s=2.0, target="m")
        assert FaultPlan([spec]).signature() == \
            FaultPlan([spec]).signature()
        assert FaultPlan([spec]).signature() != \
            FaultPlan([other]).signature()

    def test_cancelled_onset_never_strikes(self):
        bed = _bed()
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        plan = FaultPlan([FaultSpec(kind=FaultKind.MIX_CRASH, at_s=1.0,
                                    target="zone-EU/mix-0")])
        (onset,) = plan.compile_onto(loop, injector)
        onset.cancel()
        loop.run()
        assert "zone-EU/mix-0" in bed.mixes
        assert injector.timeline == []


class TestInjectorCrashes:
    def test_mix_crash_detection_and_recovery(self):
        bed = _bed()
        for i in range(4):
            bed.add_client(f"c{i}", "zone-EU")
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        target = bed.clients["c0"].mix_id
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.MIX_CRASH, at_s=1.0, target=target,
            duration_s=3.0, detection_delay_s=0.5)])
        plan.compile_onto(loop, injector)
        loop.run(until=1.2)
        # Unclean crash: mix gone but directory still lists it.
        assert target not in bed.mixes
        assert target in bed.zones["zone-EU"].mix_ids
        loop.run(until=2.0)
        assert target not in bed.zones["zone-EU"].mix_ids
        loop.run(until=5.0)
        # Recovered: back in the deployment and the directory.
        assert target in bed.mixes
        assert target in bed.zones["zone-EU"].mix_ids
        actions = [(e.action, e.target) for e in injector.timeline]
        assert actions == [("injected", target), ("detected", target),
                           ("recovered", target)]
        assert injector.orphans[target]  # c0 at least

    def test_sp_crash_and_recovery(self):
        bed = _bed()
        mix = bed.mixes["zone-EU/mix-0"]
        mix.configure_channels(2)
        bed.add_superpeer("sp-0", mix.mix_id, channels=[0, 1])
        bed.add_client("c0", "zone-EU", k=2, via_superpeers=True)
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.SP_CRASH, at_s=1.0, target="sp-0",
            duration_s=2.0)])
        plan.compile_onto(loop, injector)
        loop.run(until=1.5)
        assert "sp-0" not in bed.superpeers
        # The client sheds the dead SP's channels but stays joined.
        assert bed.clients["c0"].joined
        assert bed.clients["c0"].attachments == []
        loop.run(until=4.0)
        assert "sp-0" in bed.superpeers
        assert bed.superpeers["sp-0"].channel_clients == {0: [], 1: []}
        assert [e.action for e in injector.timeline] == \
            ["injected", "recovered"]

    def test_double_crash_is_skipped_not_fatal(self):
        bed = _bed()
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        plan = FaultPlan([
            FaultSpec(kind=FaultKind.MIX_CRASH, at_s=1.0,
                      target="zone-EU/mix-0"),
            FaultSpec(kind=FaultKind.MIX_CRASH, at_s=2.0,
                      target="zone-EU/mix-0"),
        ])
        plan.compile_onto(loop, injector)
        loop.run()
        assert [e.action for e in injector.timeline] == \
            ["injected", "skipped"]

    def test_crash_hooks_fire_with_orphans(self):
        bed = _bed()
        bed.add_client("c0", "zone-EU")
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        seen = []
        injector.on_mix_crash.append(
            lambda spec, orphans: seen.append((spec.target, orphans)))
        target = bed.clients["c0"].mix_id
        plan = FaultPlan([FaultSpec(kind=FaultKind.MIX_CRASH, at_s=1.0,
                                    target=target)])
        plan.compile_onto(loop, injector)
        loop.run()
        assert seen == [(target, ["c0"])]

    def test_sp_crash_hooks_fire_with_affected_clients(self):
        bed = _bed()
        mix = bed.mixes["zone-EU/mix-0"]
        mix.configure_channels(2)
        bed.add_superpeer("sp-0", mix.mix_id, channels=[0, 1])
        bed.add_client("c0", "zone-EU", k=2, via_superpeers=True)
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        seen = []
        injector.on_sp_crash.append(
            lambda spec, affected: seen.append((spec.target, affected)))
        plan = FaultPlan([FaultSpec(kind=FaultKind.SP_CRASH, at_s=1.0,
                                    target="sp-0")])
        plan.compile_onto(loop, injector)
        loop.run()
        assert seen == [("sp-0", ["c0"])]
        assert injector.failed_sps["sp-0"].sp_id == "sp-0"


class TestInjectorDegradations:
    def test_partition_forces_availability_down(self):
        loop = EventLoop(seed=1)
        bed = _bed()
        monitor = SPMonitor()
        injector = FaultInjector(bed, loop, monitor=monitor,
                                 sample_interval_s=0.1)
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.LINK_PARTITION, at_s=0.5, target="sp-x",
            duration_s=2.0)])
        plan.compile_onto(loop, injector)
        loop.run(until=5.0)
        assert monitor.is_blacklisted("sp-x")
        assert monitor.records["sp-x"].availability == 0.0

    def test_degradation_sampling_stops_at_window_end(self):
        loop = EventLoop(seed=1)
        bed = _bed()
        monitor = SPMonitor(min_samples=1000)  # never blacklists here
        injector = FaultInjector(bed, loop, monitor=monitor,
                                 sample_interval_s=0.25)
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.LOSS_BURST, at_s=0.0, target="sp-x",
            duration_s=1.0, loss=0.5)])
        plan.compile_onto(loop, injector)
        loop.run(until=10.0)
        n_at_window_end = len(monitor.records["sp-x"].loss_samples)
        assert 4 <= n_at_window_end <= 5
        assert not monitor.is_blacklisted("sp-x")

    def test_degradation_without_monitor_is_a_bounded_window(self):
        """With no monitor a degradation only marks its window on the
        timeline: it opens, closes at ``at_s + duration_s``, and leaves
        nothing scheduled."""
        loop = EventLoop(seed=1)
        bed = _bed()
        injector = FaultInjector(bed, loop)
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.LINK_DEGRADE, at_s=1.0, target="sp-x",
            duration_s=2.0, loss=0.2, jitter_ms=50.0)])
        plan.compile_onto(loop, injector)
        loop.run()
        assert [(e.time_s, e.action, e.detail)
                for e in injector.timeline] == \
            [(1.0, "injected", "no-op target"), (3.0, "recovered", "")]
        assert loop.pending() == 0

    def test_teardown_cancels_open_samplers(self):
        loop = EventLoop(seed=1)
        bed = _bed()
        monitor = SPMonitor(min_samples=1000)
        injector = FaultInjector(bed, loop, monitor=monitor,
                                 sample_interval_s=0.5)
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.JITTER_BURST, at_s=0.0, target="sp-x",
            duration_s=10.0, jitter_ms=80.0)])
        plan.compile_onto(loop, injector)
        loop.run(until=1.2)
        n_before = len(monitor.records["sp-x"].jitter_samples)
        assert n_before == 3  # t = 0.0, 0.5, 1.0
        injector.teardown()
        loop.run(until=5.0)
        assert len(monitor.records["sp-x"].jitter_samples) == n_before


class TestInjectorWindows:
    def test_directory_stall_refuses_redirection_for_its_window(self):
        bed = _bed()
        directory = bed.directories["zone-EU"]
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.DIRECTORY_STALL, at_s=1.0, target="zone-EU",
            duration_s=2.0)])
        plan.compile_onto(loop, injector)
        loop.run(until=1.5)
        with pytest.raises(DirectoryStalledError):
            directory.pick_mix()
        loop.run(until=3.5)
        assert directory.pick_mix() in bed.mixes
        assert [e.action for e in injector.timeline] == \
            ["injected", "recovered"]

    def test_directory_stall_of_unknown_zone_is_skipped(self):
        bed = _bed()
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.DIRECTORY_STALL, at_s=1.0, target="zone-XX",
            duration_s=2.0)])
        plan.compile_onto(loop, injector)
        loop.run()
        assert [(e.action, e.detail) for e in injector.timeline] == \
            [("skipped", "no such directory")]
        assert not bed.directories["zone-EU"].stalled

    def test_overload_hooks_open_and_close_the_window(self):
        bed = _bed()
        loop = EventLoop(seed=1)
        injector = FaultInjector(bed, loop)
        seen = []
        injector.on_overload.append(
            lambda spec, engaged: seen.append((loop.now, engaged,
                                               spec.capacity_fraction)))
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.OVERLOAD, at_s=2.0, target="zone-EU",
            duration_s=1.5, capacity_fraction=0.25)])
        plan.compile_onto(loop, injector)
        loop.run()
        assert seen == [(2.0, True, 0.25), (3.5, False, 0.25)]
        assert injector.timeline[0].detail == "capacity=0.25"


class TestChaosScenario:
    def test_acceptance_scenario_mix_and_sp_killed_mid_call(self):
        outcome = execute(_small_scenario())
        # ≥ 1 documented successful mid-call failover, with the call
        # actually resuming on a surviving SP's channel.
        assert len(outcome.survived_failovers) >= 1
        assert outcome.mid_call_failover_demonstrated
        for record in outcome.survived_failovers:
            assert record.new_channel != record.old_channel
        # Every orphan of the mix crash re-joined through backoff.
        assert outcome.rejoins
        assert outcome.all_rejoined
        for stats in outcome.rejoins:
            assert stats.attempts >= 1
            assert stats.latency_s > 0
        # Structured timeline documents the whole story.
        actions = {e.action for e in outcome.timeline}
        assert {"injected", "failover", "rejoined"} <= actions

    def test_blacklist_driven_failover(self):
        outcome = execute(_small_scenario(MIX_CRASH_AND_SP_DEGRADE))
        assert "zone-live/sp-1" in outcome.blacklisted_sps
        assert len(outcome.survived_failovers) >= 1
        assert outcome.mid_call_failover_demonstrated
        kinds = [(e.action, e.kind) for e in outcome.timeline]
        assert ("blacklisted", "sp_quality") in kinds
        assert ("failover", "call") in kinds

    def test_same_seed_same_plan_identical_runs(self):
        # The determinism regression: fault timeline, events processed,
        # rejoin latencies, and failover outcomes all replay
        # bit-for-bit.
        a = run_scenario(_small_scenario())
        b = run_scenario(_small_scenario())
        assert a.determinism_key == b.determinism_key
        assert a.detail.events_processed == b.detail.events_processed
        assert a.timeline == b.timeline
        assert [(r.client_id, r.rejoined_at_s, r.attempts)
                for r in a.detail.rejoins] == \
            [(r.client_id, r.rejoined_at_s, r.attempts)
             for r in b.detail.rejoins]

    def test_different_seed_diverges(self):
        a = run_scenario(_small_scenario())
        b = run_scenario(_small_scenario(seed=99))
        assert a.determinism_key != b.determinism_key

    def test_default_plans_have_stable_signatures(self):
        crash = _small_scenario().plan().signature()
        assert crash == _small_scenario().plan().signature()
        assert crash != _small_scenario(
            MIX_CRASH_AND_SP_DEGRADE).plan().signature()
