"""The §9/§13 equivalence contract extended to real sockets.

The ``asyncio`` plane's verification anchor (DESIGN.md §14): the same
scenario runs on ``batch-v2`` (in-memory vectors) and on ``asyncio``
(every cell a real loopback UDP datagram), and the report rows match —
delivered/chaff counts exactly, survival verdicts identically, one
determinism key.  Wall-clock latency is the one new side channel and
lives only in ``net_report()`` / the artifact's ``net`` section,
excluded from every determinism surface.

Also pinned here (satellite): a tap implementing only the per-cell
``record()`` protocol observes byte-identical traffic whether the run
table came from batch-v2's vector plane or from datagrams reassembled
off the socket.
"""

import gc
import warnings

import pytest

from repro import execution as execution_registry
from repro.api import SimConfig, Simulation
from repro.scenario.loader import load_scenario
from repro.scenario.report import run_scenario

BASELINE = "scenarios/00-baseline.toml"
WIRETAP_SCENARIO = "scenarios/04-loss-jitter-storm.toml"


class RecordOnlyTap:
    """A tap speaking only the oldest protocol: one ``record()`` call
    per cell.  The dispatch helpers must expand run tables for it."""

    def __init__(self):
        self.seen = []

    def record(self, time, packet, src, dst):
        self.seen.append((time, src, dst, packet.size))


def _drive(fabric, rounds=4):
    for r in range(rounds):
        fabric.emit("client-0", "sp-0", b"\x01" * 64, kind="data")
        fabric.emit_repeated("sp-0", "mix-0", b"\x02" * 128, 3,
                             kind="up")
        fabric.emit_repeated("mix-0", "sp-0", b"\x03" * 128, 5,
                             kind="down")
        fabric.flush_round(r)
    return fabric.finalize()


class TestRecordOnlyTapBridge:
    def _tap_stream(self, engine):
        fabric = execution_registry.create_wire_fabric(
            engine, seed=1, interval=0.02)
        tap = RecordOnlyTap()
        fabric.add_tap(tap)
        stats = _drive(fabric)
        return tap.seen, stats

    def test_socket_bridge_matches_batch_v2(self):
        sim_seen, sim_stats = self._tap_stream("batch-v2")
        net_seen, net_stats = self._tap_stream("asyncio")
        assert net_seen == sim_seen
        assert len(net_seen) == 36
        assert net_stats == sim_stats


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("engine", ["batch-v2", "asyncio"])
def test_round_flushed_after_finalize_reaches_next_call(engine):
    # One teardown contract for both transports: finalize() is
    # re-entrant, and a round flushed after it (which reopens the
    # sockets on the asyncio plane) reaches the stats at the next
    # call without leaking a loop or a transport.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        fabric = execution_registry.create_wire_fabric(engine, seed=1)
        fabric.emit_repeated("a", "b", b"x" * 100, 3)
        fabric.flush_round(0)
        assert fabric.finalize()["cells"] == 3
        fabric.emit_repeated("a", "b", b"x" * 100, 5)
        fabric.flush_round(1)
        assert fabric.finalize()["cells"] == 5
        assert fabric.finalize()["cells"] == 0
        assert fabric.cells_carried == 8
        del fabric
        gc.collect()
    assert not [w for w in caught
                if issubclass(w.category, ResourceWarning)]


class TestFacadeEquivalence:
    def test_wiretap_observations_byte_identical(self):
        def run(engine):
            report = Simulation(SimConfig(
                seed=3, n_clients=6, execution=engine,
                wiretap=True)).run(rounds=10)
            return report

        sim = run("batch-v2")
        net = run("asyncio")
        assert net.detail["wiretap"]["observations"] == \
            sim.detail["wiretap"]["observations"]
        assert net.detail["wiretap"]["cells_carried"] == \
            sim.detail["wiretap"]["cells_carried"]
        assert net.metrics == sim.metrics
        # The side channel exists only on the socket plane, and the
        # simulator report carries no net section at all.
        assert net.detail["net"]["transport"] == "udp"
        assert "net" not in sim.detail


class TestScenarioEquivalence:
    @pytest.mark.parametrize("path", [BASELINE, WIRETAP_SCENARIO])
    def test_report_rows_match_batch_v2(self, path):
        scenario = load_scenario(path)
        sim = run_scenario(scenario, execution="batch-v2")
        net = run_scenario(scenario, execution="asyncio")
        # One determinism key: timeline, metrics, wiretap
        # observations, invariants — everything engine-invariant.
        assert net.determinism_key == sim.determinism_key
        assert net.survival == sim.survival
        assert net.criteria_failures == sim.criteria_failures
        assert net.invariant_violations == sim.invariant_violations
        assert net.passed == sim.passed
        assert net.timeline == sim.timeline

    def test_artifact_differs_only_in_net_section(self):
        scenario = load_scenario(BASELINE)
        sim = run_scenario(scenario,
                           execution="batch-v2").to_artifact_dict()
        net = run_scenario(scenario,
                           execution="asyncio").to_artifact_dict()
        net_section = net.pop("net")
        sim.pop("engine")
        net.pop("engine")
        assert net == sim
        assert net_section["transport"] == "udp"
        assert net_section["datagrams_sent"] >= \
            net_section["retransmits"]
        assert "wall_send_seconds" in net_section
