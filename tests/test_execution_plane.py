"""The ExecutionPlane registry: engines resolve by name, not string-if.

DESIGN.md §13: ``SimConfig(execution=...)`` and every CLI ``--engine``
flag resolve through :mod:`repro.execution` — one registry owning the
mapping from an engine name to how the zone steps (``zone_mode``),
how the wire plane carries a round (``wire_mode``), and which
*transport* carries the wire image (``sim`` in memory vs ``udp``
loopback datagrams).  These tests pin the registry surface, its
validation errors, the facade integration (``RunReport.engine``
everywhere), and what was removed outright: ``ScenarioReport
.execution`` and the ``--execution`` CLI flag (deprecated in PR 9),
and the ``shards`` option at every layer (measured and deleted with
zone sharding, DESIGN.md §13).
"""

import pytest

from repro import execution
from repro.api import RunReport, SimConfig, Simulation


class TestRegistry:
    def test_registered_planes(self):
        assert set(execution.plane_names()) >= {"event", "batch",
                                                "batch-v2", "asyncio"}

    def test_plane_specs(self):
        event = execution.resolve("event")
        assert (event.zone_mode, event.wire_mode) == ("event", "event")
        batch = execution.resolve("batch")
        assert (batch.zone_mode, batch.wire_mode) == ("batch", "batch")
        v2 = execution.resolve("batch-v2")
        assert (v2.zone_mode, v2.wire_mode) == ("batch", "vector")

    def test_transport_axis(self):
        # Every simulator plane runs on the "sim" transport; the
        # asyncio plane is the only one on real sockets.
        for name in ("event", "batch", "batch-v2"):
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

    def test_resolve_returns_plane(self):
        plane = execution.resolve("batch-v2")
        assert isinstance(plane, execution.ExecutionPlane)
        assert plane.name == "batch-v2"

    def test_resolve_rejects_bad_shards(self):
        # Every shard count is bad now: resolve() takes one argument.
        for name, shards in (("batch-v2", 4), ("batch", 1)):
            with pytest.raises(TypeError):
                execution.resolve(name, shards)


class TestFacadeIntegration:
    def test_simconfig_resolves_plane(self):
        cfg = SimConfig(seed=1, execution="batch-v2")
        assert cfg.execution == "batch-v2"
        with pytest.raises(ValueError):
            SimConfig(seed=1, execution="nope")

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
                                      execution="batch")).run(rounds=5)
        assert report.engine == "batch"
        assert report.detail["engine"] == "batch"

    def test_scenario_report_execution_alias_removed(self):
        from repro.scenario import run_scenario
        from repro.scenario.loader import load_scenario
        scenario = load_scenario("scenarios/00-baseline.toml")
        report = run_scenario(scenario, execution="batch")
        assert report.engine == "batch"
        # The alias is gone: __slots__ rejects the old spelling.
        with pytest.raises(AttributeError):
            report.execution
        artifact = report.to_artifact_dict()
        assert artifact["engine"] == "batch"
        assert "execution" not in artifact

    def test_simconfig_net_processes_validation(self):
        with pytest.raises(ValueError, match="transport"):
            SimConfig(seed=1, execution="batch-v2",
                      net_processes=True)
        cfg = SimConfig(seed=1, execution="asyncio",
                        net_processes=True)
        assert cfg.net_processes is True
        assert SimConfig(seed=1, execution="asyncio").net_processes \
            is False

    def test_runreport_engine_default(self):
        report = RunReport(scenario="live", seed=0, rounds_run=0,
                           metrics={}, trace_events=[],
                           trace_path=None, detail=None)
        assert report.engine == "event"


class TestCLIVocabulary:
    """Satellite: ``repro metrics`` / ``repro scenario`` both speak
    ``--engine``; ``--execution`` finished its deprecation cycle,
    ``--shards`` left with zone sharding, ``--profile`` and the
    ``bench`` sub-command with the in-tree profiler — all are
    argparse usage errors (exit 2)."""

    def test_metrics_engine_flag(self, capsys):
        from repro.cli import main
        assert main(["metrics", "--engine", "batch-v2",
                     "--rounds", "5", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "herd_" in out

    def test_metrics_execution_alias_removed(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--execution", "batch", "--rounds",
                  "5", "--format", "json"])
        assert exc.value.code == 2
        assert "--execution" in capsys.readouterr().err

    def test_scenario_execution_alias_removed(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", "scenarios/00-baseline.toml",
                  "--execution", "batch"])
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
        ["metrics", "--engine", "batch-v2", "--shards", "2"],
        ["scenario", "run", "scenarios/00-baseline.toml",
         "--engine", "batch-v2", "--shards", "2"],
        pytest.param(["metrics", "--rounds", "5", "--profile"],
                     id="metrics-profile"),
        pytest.param(["scenario", "run", "scenarios/00-baseline.toml",
                      "--profile"], id="scenario-profile"),
        pytest.param(["bench", "list"], id="bench"),
    ])
    def test_shards_flag_removed(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        (rejected,) = [arg for arg in argv
                       if arg in ("--shards", "--profile", "bench")]
        assert rejected in capsys.readouterr().err
