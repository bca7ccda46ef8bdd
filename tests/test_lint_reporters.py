"""Reporter golden tests (text/JSON/SARIF) and CLI runner exit-code
tests — the fixture-based demonstration that the CI gate fails on an
unsuppressed finding and passes otherwise."""

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import LintConfig, all_rules, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.reporters import (
    render_json,
    render_sarif,
    render_text,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
VIOLATION = str(FIXTURES / "global_rng_violation.py")
SUPPRESSED = str(FIXTURES / "global_rng_suppressed.py")
CLEAN = str(FIXTURES / "global_rng_clean.py")


def result_with_findings():
    return run_lint([VIOLATION, SUPPRESSED], LintConfig())


def test_text_report_format():
    text = render_text(result_with_findings())
    first = text.splitlines()[0]
    # path:line:col: RULE message
    assert "global_rng_violation.py:" in first
    assert ": HL002 " in first
    assert "files scanned" in text.splitlines()[-1]
    # suppressed findings are hidden unless asked for
    assert "(suppressed)" not in text
    shown = render_text(result_with_findings(), show_suppressed=True)
    assert "(suppressed)" in shown


def test_json_report_golden_structure():
    payload = json.loads(render_json(result_with_findings()))
    assert payload["tool"] == "herdlint"
    assert payload["files_scanned"] == 2
    assert payload["summary"]["active"] >= 4
    assert payload["summary"]["suppressed"] >= 2
    assert payload["summary"]["total"] == len(payload["findings"])
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "message", "path", "line", "col",
                            "severity", "suppressed"}
    assert finding["rule"].startswith("HL")


def test_sarif_report_golden_structure():
    sarif = json.loads(render_sarif(result_with_findings()))
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "herdlint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert {r.rule_id for r in all_rules()} <= rule_ids
    assert run["results"], "expected at least one result"
    result = run["results"][0]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith(".py")
    assert location["region"]["startLine"] >= 1
    # suppressed findings carry an inSource suppression marker
    suppressed = [r for r in run["results"] if "suppressions" in r]
    assert suppressed
    assert suppressed[0]["suppressions"] == [{"kind": "inSource"}]


def test_runner_fails_on_unsuppressed_finding(capsys):
    assert lint_main([VIOLATION]) == 1
    out = capsys.readouterr().out
    assert "HL002" in out


def test_runner_passes_when_all_findings_suppressed(capsys):
    assert lint_main([SUPPRESSED]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_runner_passes_on_clean_file(capsys):
    assert lint_main([CLEAN]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", [
    "--cache", "--changed", "--baseline", "--update-baseline", "--fix",
    "--warn-only"])
def test_removed_flags_are_rejected(flag, capsys):
    """One gate, one waiver mechanism (the inline disable comment):
    the cache / incremental / baseline / autofix / warn-only flags
    are gone, not silently accepted."""
    with pytest.raises(SystemExit) as exc:
        lint_main([CLEAN, flag])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_runner_writes_sarif_output_file(tmp_path, capsys):
    out_file = tmp_path / "herdlint.sarif"
    code = lint_main([VIOLATION, "--format", "sarif",
                      "--output", str(out_file)])
    capsys.readouterr()
    assert code == 1
    sarif = json.loads(out_file.read_text())
    assert sarif["runs"][0]["results"]


def test_runner_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("HL001", "HL002", "HL003", "HL004", "HL005",
                    "HL006"):
        assert rule_id in out


def test_repro_lint_list_rules_prints_the_ten_rule_ids(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    ids = [line.split()[0]
           for line in capsys.readouterr().out.splitlines()]
    assert ids == ["HL001", "HL002", "HL003", "HL004", "HL005",
                   "HL006", "HL007", "HL101", "HL102", "HL103"]


def test_repro_cli_lint_subcommand(capsys):
    """`repro lint` is the same gate mounted on the main CLI."""
    assert repro_main(["lint", VIOLATION]) == 1
    assert repro_main(["lint", CLEAN]) == 0
    capsys.readouterr()
