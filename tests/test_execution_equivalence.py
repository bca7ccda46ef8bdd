"""The observational-equivalence contract between execution engines.

DESIGN.md §9: a seeded run produces *byte-identical* adversary
observations, metrics snapshots, and JSONL traces whether it executes
on the per-cell event engine or the vectorized ``batch-v2`` plane
(DESIGN.md §13).
The engines may differ in anything an adversary cannot see — events
processed, objects allocated, wall-clock speed — and nothing else.

This file pins that contract:

* an exact cross-engine comparison of all three output surfaces for
  the live scenario (plus a pinned digest, so a change that breaks
  both engines in lockstep still trips a review);
* chaos scenarios compared across engines (the testbed, which has
  one engine, compared across repeats and refusing the others);
* a hypothesis sweep over random seeds and zone shapes comparing the
  E9 constant-rate census and the wiretap size/time sequences.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SimConfig, Simulation
from repro.faults.plan import FaultKind, FaultSpec
from repro.netsim.packet import IP_UDP_HEADER_BYTES
from repro.scenario import (
    Adversary,
    Scenario,
    SurvivalCriteria,
    Workload,
    ZoneShape,
    execute,
    run_scenario,
)
from repro.scenario.report import outcome_fingerprint
from repro.simulation.live import LiveZone

from conftest import MIX_AND_SP_CRASH

#: Pinned digest of the seed-20150817 adversary observation stream
#: (shared by both engines).  If this changes, the wire image of the
#: default live scenario changed — that is a protocol change, not a
#: refactor, and needs a deliberate re-pin.
PINNED_WIRETAP_SHA256 = \
    "85931d8b808ca071e5c95d8b36a93e1b073525136de3889f6fd40b480e09ed4f"


def _live_run(execution, trace_path=None, **cfg):
    defaults = dict(seed=20150817, n_clients=8, n_channels=4,
                    n_sps=2, k=2, call_pairs=2, wiretap=True)
    defaults.update(cfg)
    config = SimConfig(execution=execution,
                       trace_path=str(trace_path) if trace_path
                       else None, **defaults)
    return Simulation(config).run(rounds=25)


def _wiretap_digest(report):
    stream = json.dumps(report.detail["wiretap"]["observations"],
                        separators=(",", ":")).encode()
    return hashlib.sha256(stream).hexdigest()


class TestLiveEquivalence:
    def test_all_three_surfaces_byte_identical(self, tmp_path):
        event = _live_run("event", trace_path=tmp_path / "event.jsonl")
        v2 = _live_run("batch-v2", trace_path=tmp_path / "v2.jsonl")
        assert v2.engine == "batch-v2"
        # 1. The adversary's view.
        assert event.detail["wiretap"]["observations"] == \
            v2.detail["wiretap"]["observations"]
        # 2. The metrics snapshot, down to rendered bytes.
        assert event.metrics == v2.metrics
        assert event.to_json() == v2.to_json()
        assert event.to_prometheus() == v2.to_prometheus()
        # 3. The JSONL trace files.
        assert (tmp_path / "event.jsonl").read_bytes() == \
            (tmp_path / "v2.jsonl").read_bytes()
        # The engines really are different under the hood: batch-v2
        # puts no wire event on the heap, event two a cell.
        assert v2.detail["wiretap"]["wire_events_processed"] == 0
        assert event.detail["wiretap"]["wire_events_processed"] == \
            2 * event.detail["wiretap"]["cells_carried"]
        assert event.detail["wiretap"]["cells_carried"] == \
            v2.detail["wiretap"]["cells_carried"] > 0

    def test_pinned_wiretap_digest(self):
        event = _live_run("event")
        v2 = _live_run("batch-v2")
        assert _wiretap_digest(event) == _wiretap_digest(v2) == \
            PINNED_WIRETAP_SHA256

    def test_equivalence_survives_mid_run_sp_failure(self):
        def run(execution):
            from repro.simulation.live import LiveZone
            zone = LiveZone(n_clients=8, n_channels=4, n_sps=2,
                            seed=99, execution=execution)
            fabric = zone.attach_wire()
            zone.start_call("client-0", "client-1")
            for r in range(30):
                if r == 12:
                    zone.fail_superpeer("zone-EU/sp-1")
                zone.say("client-0", b"after-failover")
                zone.step()
            fabric.finalize()
            return [(o.time, o.size, o.src, o.dst)
                    for o in fabric.observer.observations], \
                zone.received_by("client-1")

        obs_event, voice_event = run("event")
        obs_v2, voice_v2 = run("batch-v2")
        assert obs_event == obs_v2
        assert voice_event == voice_v2

    def test_empty_zone_steps_on_every_engine(self):
        """A round in which no channel has a member: each engine runs
        it, with the same metrics snapshot."""
        reports = [Simulation(SimConfig(
            seed=3, n_clients=0, call_pairs=0, wiretap=True,
            execution=execution)).run(rounds=3)
            for execution in ("event", "batch-v2")]
        assert reports[0].rounds_run == 3
        assert reports[0].metrics == reports[1].metrics

    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_empty_live_zone_steps(self, execution):
        """The zone itself, without the Simulation around it: a round
        with no members anywhere advances the round counter."""
        zone = LiveZone(n_clients=0, execution=execution)
        zone.step()
        zone.run(2)
        assert zone.round_index == 3
        assert zone.clients == {}


class TestWireStatsEquivalence:
    """Wire stats are one set of books on every engine: ``finalize()``
    reports what the round drain booked since the last call, and must
    keep working when rounds continue after it was called.  On
    ``event`` the netsim links and nodes also count every packet they
    carry, cumulatively, and agree with the reports.  What the engines
    are allowed to differ in is cost: two heap events a cell on
    ``event``, none on the round engine."""

    @staticmethod
    def _stats(execution):
        from repro.execution import create_wire_fabric
        from repro.netsim.taps import TallyTap
        fabric = create_wire_fabric(execution, seed=1)
        tap = TallyTap()
        fabric.add_tap(tap)
        reports = []
        for r in range(6):
            fabric.emit_repeated("sp-0", "mix", b"\x00" * 160, 10,
                                 kind="up")
            fabric.emit("mix", "sp-0", b"\x01" * 100, kind="down")
            fabric.flush_round(r)
            # Every emitted cell was carried and reached the tap.
            assert fabric.cells_carried == tap.cells == 11 * (r + 1)
            if r in (2, 5):
                reports.append(fabric.finalize())
                # Nothing new: an empty report.
                assert fabric.finalize()["cells"] == 0
                if execution == "event":
                    link = fabric.link_between("sp-0", "mix")
                    for src, dst in (("sp-0", "mix"), ("mix", "sp-0")):
                        stats = link.stats[src]
                        node = fabric.node(dst)
                        assert (stats.packets, stats.bytes) == \
                            (node.packets_received,
                             node.bytes_received) == \
                            tuple(sum(report["link_stats"][(src, dst)][i]
                                      for report in reports)
                                  for i in (0, 1))
        assert fabric.rounds_flushed == 6
        return reports, fabric.events_processed

    def test_finalize_then_more_rounds_then_finalize(self):
        event, event_cost = self._stats("event")
        up = (30, 30 * (160 + IP_UDP_HEADER_BYTES))
        down = (3, 3 * (100 + IP_UDP_HEADER_BYTES))
        assert [report["link_stats"] for report in event] == \
            [{("sp-0", "mix"): up, ("mix", "sp-0"): down}] * 2
        # One transmission + one delivery event per cell.
        assert event_cost == 2 * 66
        assert self._stats("batch-v2") == (event, 0)


class TestTestbedAndChaosEquivalence:
    def test_testbed_metrics_identical(self):
        # The testbed has one engine, so its check is a repeat: one
        # seed run twice gives the same metrics.
        def run():
            config = SimConfig(scenario="testbed", seed=5,
                               n_clients=6, call_pairs=2)
            return Simulation(config).run(rounds=20)

        first, second = run(), run()
        assert first.metrics == second.metrics
        assert first.engine == first.detail["engine"] == "event"
        assert first.detail["frames_delivered"] == \
            second.detail["frames_delivered"] > 0

    @pytest.mark.parametrize("execution", ["batch-v2", "asyncio"])
    def test_testbed_refuses_an_engine_it_would_not_run(self,
                                                        execution):
        with pytest.raises(ValueError, match="'event' engine only"):
            SimConfig(scenario="testbed", execution=execution)

    def test_chaos_determinism_key_identical(self):
        scenario = Scenario(name="chaos", faults=MIX_AND_SP_CRASH)

        def run(execution):
            config = SimConfig(scenario_def=scenario,
                               execution=execution)
            return Simulation(config).run(until=6.0)

        event, v2 = run("event"), run("batch-v2")
        assert outcome_fingerprint(event.detail, event.to_json(0)) == \
            outcome_fingerprint(v2.detail, v2.to_json(0))
        assert event.detail.mid_call_failover_demonstrated
        assert event.metrics == v2.metrics


class TestScenarioEquivalence:
    """The §10 contract: a declared scenario's determinism key — which
    folds in the wiretap observation stream, the fault timeline, and
    the metrics snapshot — is identical across engines, including
    under every windowed degradation kind."""

    #: All three link-degradation kinds active at overlapping windows,
    #: watched by a passive global wiretap.
    DEGRADATION_SCENARIO = Scenario(
        name="equivalence-degradations",
        description="loss + jitter + degrade windows under a wiretap",
        seed=20150817,
        horizon_s=3.0,
        round_interval_s=0.05,
        zone=ZoneShape(n_clients=12, n_channels=6, n_sps=2, k=3,
                       n_direct_clients=2),
        workload=Workload(kind="constant", call_pairs=1,
                          call_start_s=0.4),
        faults=(
            FaultSpec(kind=FaultKind.LOSS_BURST, at_s=0.8,
                      target="zone-live/sp-0", duration_s=1.5,
                      loss=0.25),
            FaultSpec(kind=FaultKind.JITTER_BURST, at_s=1.0,
                      target="zone-live/sp-1", duration_s=1.5,
                      jitter_ms=70.0),
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_s=1.2,
                      target="zone-live/sp-0", duration_s=1.0,
                      loss=0.10, jitter_ms=30.0),
        ),
        adversary=Adversary(kind="wiretap"),
        criteria=SurvivalCriteria(min_call_survival_rate=1.0,
                                  min_call_legs_established=2),
    )

    def test_degradation_faults_equivalent_across_engines(self):
        event = run_scenario(self.DEGRADATION_SCENARIO,
                             execution="event")
        v2 = run_scenario(self.DEGRADATION_SCENARIO,
                          execution="batch-v2")
        # The adversary's view is byte-identical, even while loss,
        # jitter, and degradation windows churn link state.
        obs_event = event.detail.wiretap["observations"]
        obs_v2 = v2.detail.wiretap["observations"]
        assert obs_event == obs_v2
        assert len(obs_event) > 0
        # The fault timeline replays identically: same onsets, same
        # reverts, same virtual times.
        assert event.timeline == v2.timeline
        actions = [entry[1] for entry in event.timeline]
        assert actions.count("injected") == 3
        assert actions.count("recovered") == 3
        # The sustained loss/degrade windows on sp-0 trip the monitor's
        # blacklist, and the live call leg fails over and survives.
        assert "blacklisted" in actions and "failover" in actions
        # Metrics and the whole determinism key agree.
        assert event.metrics == v2.metrics
        assert event.determinism_key == v2.determinism_key
        assert event.passed and v2.passed
        # The engines still differ where they are allowed to: the
        # batch-v2 engine puts no wire event on the heap.
        assert v2.detail.wiretap["wire_events_processed"] == 0 < \
            event.detail.wiretap["wire_events_processed"]

    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_the_wiretap_ticks_on_the_scenario_clock(self, execution):
        # 20 rounds of 50 ms: round r is observed at r * 0.05 s, the
        # scenario's own clock, not the 20 ms codec-frame default.
        scenario = Scenario(name="wiretap-clock", seed=3, horizon_s=1.0,
                            round_interval_s=0.05,
                            zone=ZoneShape(n_clients=4, n_channels=2,
                                           n_sps=1, k=1,
                                           n_direct_clients=0),
                            workload=Workload(call_pairs=1,
                                              call_start_s=0.2),
                            adversary=Adversary(kind="wiretap"))
        outcome = execute(scenario, execution=execution)
        assert outcome.rounds_run == 20
        times = sorted({time for time, _, _, _
                        in outcome.wiretap["observations"]})
        assert times == [r * 0.05 for r in range(20)]

    def test_scenario_key_stable_across_replays(self):
        first = run_scenario(self.DEGRADATION_SCENARIO)
        second = run_scenario(self.DEGRADATION_SCENARIO)
        assert first.determinism_key == second.determinism_key


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_channels=st.integers(2, 6),
       n_sps=st.integers(1, 3),
       call_pairs=st.integers(0, 2))
def test_equivalence_property_random_shapes(seed, n_channels, n_sps,
                                            call_pairs):
    """Random seeds and zone shapes: the E9 constant-rate census rows
    and the wiretap (time, size) sequences match across engines."""
    n_sps = min(n_sps, n_channels)
    n_clients = max(6, 2 * call_pairs)
    rounds = 15

    def run(execution):
        config = SimConfig(seed=seed, n_clients=n_clients,
                           n_channels=n_channels, n_sps=n_sps,
                           call_pairs=call_pairs, trace_buffer=0,
                           wiretap=True, execution=execution)
        return Simulation(config).run(rounds=rounds)

    event, vector = run("event"), run("batch-v2")

    # The E9 report row: downstream cells per round, by kind.
    def census(report):
        return {s["labels"]["kind"]: s["value"]
                for s in report.metrics["herd_mix_cells_total"]
                ["series"]}

    assert census(event) == census(vector)
    assert sum(census(event).values()) == n_channels * rounds

    # The adversary's size/time sequences.
    assert event.detail["wiretap"]["observations"] == \
        vector.detail["wiretap"]["observations"]
