"""The ExecutionPlane registry: engines resolve by name, not string-if.

DESIGN.md §13: ``SimConfig(execution=...)`` and every CLI ``--engine``
flag resolve through :mod:`repro.execution` — one registry owning the
mapping from an engine name to how the zone steps (``zone_mode``),
how the wire plane carries a round (``wire_mode``), and which
*transport* carries the wire image (``sim`` in memory vs ``udp``
loopback datagrams).  These tests pin the registry surface, its
validation errors, the facade integration (``RunReport.engine``
everywhere), and what was removed outright: ``ScenarioReport
.execution`` and the ``--execution`` CLI flag, the ``shards`` option
at every layer (measured and deleted with zone sharding, DESIGN.md
§13), and the per-link ``batch`` wire plane, whose name is now an
unknown engine everywhere.
"""

import pytest

from repro import execution
from repro.api import RunReport, SimConfig, Simulation


def _live_zone(**kwargs):
    from repro.simulation.live import LiveZone
    return LiveZone(n_clients=2, **kwargs)


def _wire_fabric(**kwargs):
    from repro.simulation.roundsync import WireFabric
    return WireFabric(seed=1, **kwargs)


def _run_baseline(**kwargs):
    from repro.scenario import run_scenario
    from repro.scenario.loader import load_scenario
    return run_scenario(load_scenario("scenarios/00-baseline.toml"),
                        **kwargs)


class TestRegistry:
    def test_registered_planes(self):
        assert execution.plane_names() == ("event", "batch-v2",
                                           "asyncio")

    def test_plane_specs(self):
        event = execution.resolve("event")
        assert (event.zone_mode, event.wire_mode) == ("event", "event")
        v2 = execution.resolve("batch-v2")
        assert (v2.zone_mode, v2.wire_mode) == ("batch", "vector")

    def test_transport_axis(self):
        # Every simulator plane runs on the "sim" transport; the
        # asyncio plane is the only one on real sockets.
        for name in ("event", "batch-v2"):
            assert execution.resolve(name).transport == "sim"
        net = execution.resolve("asyncio")
        assert net.transport == "udp"
        assert (net.zone_mode, net.wire_mode) == ("batch", "socket")

    def test_create_wire_fabric_seam(self):
        # The transport seam hands protocol code a CellTransport
        # without it importing the simulator or socket module.
        from repro.core.transport import CellTransport
        fabric = execution.create_wire_fabric("batch-v2", seed=1)
        assert isinstance(fabric, CellTransport)
        assert fabric.net_report() is None
        net = execution.create_wire_fabric("asyncio", seed=1)
        assert isinstance(net, CellTransport)
        assert type(net).__name__ == "UdpFabric"
        net.finalize()

    def test_wirefabric_rejects_udp_planes(self):
        from repro.simulation.roundsync import WireFabric
        with pytest.raises(ValueError, match="create_wire_fabric"):
            WireFabric(seed=1, execution="asyncio")

    def test_unknown_name_suggests(self):
        with pytest.raises(ValueError, match="batch-v2"):
            execution.resolve("batch-v3")
        with pytest.raises(ValueError, match="event"):
            execution.resolve("events")

    def test_plane_table_is_private(self):
        # Nothing outside the registry builds a plane, so the table
        # carries no mode vocabularies of its own to validate against.
        for name in ("ZONE_MODES", "WIRE_MODES", "TRANSPORTS"):
            assert not hasattr(execution, name)

    @pytest.mark.parametrize("owner, name", [
        ("repro.netsim", "CellBatch"),
        ("repro.netsim.rounds", "CellView"),
        ("repro.netsim", "RoundScheduler"),
        ("repro.netsim.taps", "offer_batch"),
        ("repro.netsim.link.Link", "transmit_batch"),
        ("repro.netsim.node.Node", "on_batch"),
        ("repro.netsim.node.Node", "receive_batch"),
        ("repro.obs", "LinkTap"),
        ("repro.obs.instrument.Herdscope", "attach_link"),
    ])
    def test_batch_tier_removed(self, owner, name):
        # The per-link batch wire tier, and the metrics link tap
        # nothing attached, are gone; nothing may grow them back
        # without a run path that uses them.
        import importlib
        try:
            target = importlib.import_module(owner)
        except ModuleNotFoundError:
            module, attr = owner.rsplit(".", 1)
            parent = importlib.import_module(module)
            if attr.islower():
                # The whole module is gone (the round clock is each
                # plane's ``round_index * interval``), and with it
                # everything it held.
                assert not hasattr(parent, attr)
                return
            target = getattr(parent, attr)
        assert not hasattr(target, name)

    def test_resolve_returns_plane(self):
        plane = execution.resolve("batch-v2")
        assert isinstance(plane, execution.ExecutionPlane)
        assert plane.name == "batch-v2"

    def test_resolve_rejects_bad_shards(self):
        # Every shard count is bad now: resolve() takes one argument.
        for name, shards in (("batch-v2", 4), ("event", 1)):
            with pytest.raises(TypeError):
                execution.resolve(name, shards)


class TestFacadeIntegration:
    def test_simconfig_resolves_plane(self):
        cfg = SimConfig(seed=1, execution="batch-v2")
        assert cfg.execution == "batch-v2"
        with pytest.raises(ValueError):
            SimConfig(seed=1, execution="nope")

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: execution.resolve("batch"), id="resolve"),
        pytest.param(lambda: SimConfig(seed=1, execution="batch"),
                     id="simconfig"),
        pytest.param(lambda: _live_zone(execution="batch"),
                     id="livezone"),
        pytest.param(lambda: execution.create_wire_fabric("batch"),
                     id="create_wire_fabric"),
        pytest.param(lambda: _wire_fabric(execution="batch"),
                     id="wirefabric"),
        pytest.param(lambda: _run_baseline(execution="batch"),
                     id="run_scenario"),
    ])
    def test_every_layer_rejects_the_batch_plane(self, build):
        # The per-link batch wire plane was deleted; its name is an
        # unknown engine that points at the plane that replaced it.
        with pytest.raises(ValueError, match="batch-v2"):
            build()

    def test_shards_option_removed(self):
        from repro.simulation.live import LiveZone
        with pytest.raises(TypeError):
            SimConfig(seed=1, execution="batch-v2", shards=2)
        with pytest.raises(TypeError):
            LiveZone(execution="batch-v2", shards=2)
        with pytest.raises(TypeError):
            execution.create_wire_fabric("batch-v2", shards=2)
        # ...and so did the in-tree phase profiler.
        with pytest.raises(TypeError):
            SimConfig(seed=1, profile=True)

    def test_runreport_engine_vocabulary(self):
        report = Simulation(SimConfig(seed=3, n_clients=6,
                                      execution="batch-v2")).run(rounds=5)
        assert report.engine == "batch-v2"
        assert report.detail["engine"] == "batch-v2"

    def test_scenario_report_execution_alias_removed(self):
        from repro.scenario import run_scenario
        from repro.scenario.loader import load_scenario
        scenario = load_scenario("scenarios/00-baseline.toml")
        report = run_scenario(scenario, execution="batch-v2")
        assert report.engine == "batch-v2"
        # The alias is gone: __slots__ rejects the old spelling.
        with pytest.raises(AttributeError):
            report.execution
        artifact = report.to_artifact_dict()
        assert artifact["engine"] == "batch-v2"
        assert "execution" not in artifact

    def test_net_processes_option_removed(self):
        # The UDP plane runs in one process: the forked-receiver knob
        # is an unknown argument at every layer that once took it.
        from repro.scenario import execute, run_scenario
        from repro.scenario.loader import load_scenario
        from repro.simulation.live import LiveZone
        scenario = load_scenario("scenarios/00-baseline.toml")
        with pytest.raises(TypeError):
            SimConfig(seed=1, execution="asyncio", net_processes=True)
        with pytest.raises(TypeError):
            LiveZone(execution="asyncio", net_processes=True)
        with pytest.raises(TypeError):
            execution.create_wire_fabric("asyncio",
                                         net_processes=True)
        with pytest.raises(TypeError):
            run_scenario(scenario, execution="asyncio",
                         net_processes=True)
        with pytest.raises(TypeError):
            execute(scenario, execution="asyncio", net_processes=True)
        assert "net_processes" not in SimConfig.__slots__

    def test_runreport_engine_default(self):
        report = RunReport(scenario="live", seed=0, rounds_run=0,
                           metrics={}, trace_events=[],
                           trace_path=None, detail=None)
        assert report.engine == "event"


class TestWireReadout:
    """``LiveZone.tap_wire`` / ``wire_readout``: the one rule for when
    a run has a wire (tapped, or on the real-network plane) and the
    one readout of it, shared by ``Simulation`` and the scenario
    engine."""

    WIRETAP_KEYS = {"observations", "cells_carried",
                    "wire_events_processed"}

    @staticmethod
    def _zone(execution, tapped, rounds=3):
        zone = _live_zone(execution=execution)
        wire = zone.tap_wire(tapped)
        zone.run(rounds)
        return zone, wire

    @pytest.mark.parametrize("engine", ["event", "batch-v2"])
    def test_untapped_simulator_has_no_wire(self, engine):
        zone, wire = self._zone(engine, tapped=False)
        assert wire is None and zone.wire is None
        assert zone.wire_readout(False) == (None, None)

    @pytest.mark.parametrize("engine", ["event", "batch-v2"])
    def test_tapped_simulator_reads_out_the_tap(self, engine):
        zone, wire = self._zone(engine, tapped=True)
        assert wire is zone.wire is not None
        wiretap, net = zone.wire_readout(True)
        assert net is None
        assert set(wiretap) == self.WIRETAP_KEYS
        assert len(wiretap["observations"]) == \
            wiretap["cells_carried"] > 0

    def test_real_network_plane_always_has_a_wire(self):
        zone, wire = self._zone("asyncio", tapped=False)
        assert wire is zone.wire is not None
        wiretap, net = zone.wire_readout(False)
        assert wiretap is None
        assert net["transport"] == "udp"
        assert net["datagrams_sent"] > 0

    def test_readout_matches_across_engines(self):
        readouts = [self._zone(engine, tapped=True)[0].wire_readout(True)
                    for engine in ("event", "batch-v2", "asyncio")]
        observations = [wiretap["observations"]
                        for wiretap, _ in readouts]
        assert observations[0] == observations[1] == observations[2]
        assert [net is None for _, net in readouts] == \
            [True, True, False]

    def test_report_shapes(self):
        # An untapped simulator run reports neither section.
        untapped = Simulation(SimConfig(seed=3, n_clients=4,
                                        execution="batch-v2")
                              ).run(rounds=2)
        assert "wiretap" not in untapped.detail
        assert "net" not in untapped.detail
        outcome = _run_baseline(execution="batch-v2")
        assert outcome.detail.wiretap is None
        assert outcome.detail.net is None


class TestCLIVocabulary:
    """Satellite: ``repro metrics`` / ``repro scenario`` both speak
    ``--engine``; ``--execution`` finished its deprecation cycle,
    ``--shards`` left with zone sharding, ``--profile`` and the
    ``bench`` sub-command with the in-tree profiler, ``--processes``
    with the forked UDP receiver — all are argparse usage errors
    (exit 2)."""

    def test_metrics_engine_flag(self, capsys):
        from repro.cli import main
        assert main(["metrics", "--engine", "batch-v2",
                     "--rounds", "5", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "herd_" in out

    def test_metrics_execution_alias_removed(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--execution", "batch-v2", "--rounds",
                  "5", "--format", "json"])
        assert exc.value.code == 2
        assert "--execution" in capsys.readouterr().err

    def test_scenario_execution_alias_removed(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", "scenarios/00-baseline.toml",
                  "--execution", "batch-v2"])
        assert exc.value.code == 2
        assert "--execution" in capsys.readouterr().err

    def test_scenario_engine_flag(self, capsys):
        from repro.cli import main
        code = main(["scenario", "run", "scenarios/00-baseline.toml",
                     "--engine", "batch-v2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[batch-v2]" in out

    @pytest.mark.parametrize("argv", [
        pytest.param(["scenario", "run", "scenarios/00-baseline.toml",
                      "--engine", "batch"], id="scenario"),
        pytest.param(["metrics", "--engine", "batch", "--rounds", "5"],
                     id="metrics"),
    ])
    def test_batch_engine_rejected(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'batch'" in err
        assert "batch-v2" in err

    @pytest.mark.parametrize("argv", [
        ["metrics", "--engine", "batch-v2", "--shards", "2"],
        ["scenario", "run", "scenarios/00-baseline.toml",
         "--engine", "batch-v2", "--shards", "2"],
        pytest.param(["metrics", "--rounds", "5", "--profile"],
                     id="metrics-profile"),
        pytest.param(["scenario", "run", "scenarios/00-baseline.toml",
                      "--profile"], id="scenario-profile"),
        pytest.param(["bench", "list"], id="bench"),
        pytest.param(["metrics", "--engine", "asyncio", "--rounds",
                      "5", "--processes"], id="metrics-processes"),
        pytest.param(["scenario", "run", "scenarios/00-baseline.toml",
                      "--engine", "asyncio", "--processes"],
                     id="scenario-processes"),
    ])
    def test_shards_flag_removed(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        (rejected,) = [arg for arg in argv
                       if arg in ("--shards", "--profile", "bench",
                                  "--processes")]
        assert rejected in capsys.readouterr().err
