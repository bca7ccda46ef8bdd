"""Tests for the command-line interface."""


import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", ["demo", "cost", "quality"])
    def test_known_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command

    def test_attack_options(self):
        args = build_parser().parse_args(
            ["attack", "--users", "123", "--bin", "2.5"])
        assert args.users == 123
        assert args.bin == 2.5


class TestCommands:
    def test_demo_succeeds(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "delivered and decrypted" in out

    def test_attack_reports_both_systems(self, capsys):
        assert main(["attack", "--users", "400", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "Tor-carried" in out
        assert "Herd-carried" in out

    def test_cost_reports_ranges(self, capsys):
        assert main(["cost", "--users", "100000"]) == 0
        out = capsys.readouterr().out
        assert "with superpeers" in out
        assert "without superpeers" in out

    def test_blocking_sweep_runs(self, capsys):
        assert main(["blocking", "--users", "500", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "clients/channel" in out

    def test_trace_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        with out_file.open("w") as fh:
            import repro.cli as cli
            parser = cli.build_parser()
            args = parser.parse_args(["trace", "--users", "100",
                                      "--days", "1"])
            args.output = fh
            assert cli._HANDLERS["trace"](args) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "caller,callee,start_s,duration_s"
        assert len(lines) > 10

    def test_quality_reports_pairs(self, capsys):
        assert main(["quality", "--packets", "40"]) == 0
        out = capsys.readouterr().out
        assert "AU-EU" in out
        assert "Herd extra one-way latency" in out


_PASSING_SCENARIO = """\
[scenario]
name = "cli-smoke"
horizon_s = 2.0
round_interval_s = 0.05

[zone]
n_clients = 8
n_channels = 4
n_sps = 2
k = 3
n_direct_clients = 2

[workload]
kind = "constant"
call_pairs = 1
call_start_s = 0.4

[criteria]
min_call_survival_rate = 1.0
min_call_legs_established = 2
"""

#: Same run, but demands shedding with no overload fault declared —
#: the criteria can never hold, so the CLI must exit nonzero.
_FAILING_SCENARIO = _PASSING_SCENARIO.replace(
    'name = "cli-smoke"', 'name = "cli-impossible"').replace(
    "[criteria]", "[criteria]\nrequire_shedding = true")


class TestMetricsCommand:
    def test_testbed_refuses_other_engines(self, capsys):
        assert main(["metrics", "--scenario", "testbed",
                     "--engine", "batch-v2", "--rounds", "1"]) != 0
        err = capsys.readouterr().err
        assert "'event' engine only" in err and "'batch-v2'" in err


class TestScenarioCommand:
    def test_run_passing_scenario_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "smoke.toml"
        path.write_text(_PASSING_SCENARIO)
        assert main(["scenario", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "cli-smoke" in out

    def test_run_failed_criteria_exit_nonzero(self, capsys, tmp_path):
        path = tmp_path / "impossible.toml"
        path.write_text(_FAILING_SCENARIO)
        assert main(["scenario", "run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "shedding never engaged" in captured.err

    def test_run_writes_report_artifact(self, tmp_path):
        import json
        path = tmp_path / "smoke.toml"
        path.write_text(_PASSING_SCENARIO)
        report_dir = tmp_path / "reports"
        assert main(["scenario", "run", str(path),
                     "--report-dir", str(report_dir)]) == 0
        artifact = json.loads(
            (report_dir / "cli-smoke.json").read_text())
        assert artifact["passed"] is True
        assert artifact["determinism_match"] is True
        assert "event" in artifact["engines"]

    def test_validate_rejects_bad_file(self, capsys, tmp_path):
        path = tmp_path / "typo.toml"
        path.write_text(_PASSING_SCENARIO.replace(
            "horizon_s", "horizn_s"))
        assert main(["scenario", "validate", str(path)]) == 2
        assert "horizon_s" in capsys.readouterr().err  # did-you-mean

    def test_validate_accepts_corpus(self, capsys):
        assert main(["scenario", "validate", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out

    def test_list_shows_corpus(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "chaos-failover" in out


class TestReportCommand:
    def test_report_shapes_hold(self, capsys):
        assert main(["report", "--users", "1000"]) == 0
        out = capsys.readouterr().out
        assert "all shape criteria hold" in out
        assert "| E1 |" in out
