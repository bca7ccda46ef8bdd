"""Fixture-driven tests for every herdlint rule (the syntactic
HL001-HL006 set and the flow-driven HL007/HL10x family) and the
engine's suppression / selection / exclusion machinery."""

from pathlib import Path

import pytest

from repro.lint import LintConfig, run_lint
from repro.lint.engine import PARSE_ERROR_ID, all_rules

FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint(*relpaths, select=None, **kwargs):
    config = LintConfig(
        select=tuple(select) if select else None, **kwargs)
    return run_lint([str(FIXTURES / p) for p in relpaths], config)


def active_ids(result):
    return [f.rule_id for f in result.active]


# One (rule, violation, suppressed, clean, minimum-hits) row per rule.
RULE_FIXTURES = [
    ("HL001", "core/wall_clock_violation.py",
     "core/wall_clock_suppressed.py", "core/wall_clock_clean.py", 3),
    ("HL002", "global_rng_violation.py",
     "global_rng_suppressed.py", "global_rng_clean.py", 4),
    ("HL003", "digest_eq_violation.py",
     "digest_eq_suppressed.py", "digest_eq_clean.py", 3),
    ("HL004", "secret_log_violation.py",
     "secret_log_suppressed.py", "secret_log_clean.py", 4),
    ("HL005", "sleep_violation.py",
     "sleep_suppressed.py", "sleep_clean.py", 2),
    ("HL007", "determinism_violation.py",
     "determinism_suppressed.py", "determinism_clean.py", 4),
    ("HL101", "core/shared_state_violation.py",
     "core/shared_state_suppressed.py",
     "core/shared_state_clean.py", 3),
    ("HL102", "blocking_async_violation.py",
     "blocking_async_suppressed.py", "blocking_async_clean.py", 3),
    ("HL103", "unawaited_violation.py",
     "unawaited_suppressed.py", "unawaited_clean.py", 2),
]


@pytest.mark.parametrize(
    "rule_id,violation,suppressed,clean,min_hits", RULE_FIXTURES)
def test_rule_detects_suppresses_and_passes(rule_id, violation,
                                            suppressed, clean,
                                            min_hits):
    hits = lint(violation, select=[rule_id])
    assert len(hits.active) >= min_hits
    assert set(active_ids(hits)) == {rule_id}

    waived = lint(suppressed, select=[rule_id])
    assert waived.active == []
    assert len(waived.suppressed) >= 1
    assert all(f.rule_id == rule_id for f in waived.suppressed)

    clean_run = lint(clean, select=[rule_id])
    assert clean_run.findings == []


def test_hl001_only_fires_in_virtual_time_scope(tmp_path):
    """The same wall-clock read outside core/simulation/faults/netsim
    (e.g. an analysis script) is not HL001's business."""
    outside = tmp_path / "analysis_script.py"
    outside.write_text("import time\n\n\ndef f():\n"
                       "    return time.time()\n")
    result = run_lint([str(outside)], LintConfig(select=("HL001",)))
    assert result.findings == []


def test_hl001_allowlist_is_scoped_to_perfclock_only(tmp_path):
    """The one exemption: ``obs/perfclock.py`` is the sanctioned
    wall-clock module.  Any other file under ``obs`` — or a file
    merely *named* perfclock.py elsewhere in scope — still trips
    HL001."""
    obs = tmp_path / "obs"
    obs.mkdir()
    clock_read = ("import time\n\n\ndef now():\n"
                  "    return time.perf_counter()\n")

    sanctioned = obs / "perfclock.py"
    sanctioned.write_text(clock_read)
    result = run_lint([str(sanctioned)],
                      LintConfig(select=("HL001",)))
    assert result.findings == []

    rogue = obs / "rogue.py"
    rogue.write_text(clock_read)
    result = run_lint([str(rogue)], LintConfig(select=("HL001",)))
    assert [f.rule_id for f in result.findings] == ["HL001"]

    imposter_dir = tmp_path / "netsim"
    imposter_dir.mkdir()
    imposter = imposter_dir / "perfclock.py"
    imposter.write_text(clock_read)
    result = run_lint([str(imposter)], LintConfig(select=("HL001",)))
    assert [f.rule_id for f in result.findings] == ["HL001"]


def test_hl002_reports_the_resolved_name():
    result = lint("global_rng_violation.py", select=["HL002"])
    messages = " ".join(f.message for f in result.active)
    assert "random.random()" in messages
    assert "numpy.random.seed()" in messages
    assert "without a seed" in messages


def test_hl004_allows_len_of_secret():
    result = lint("secret_log_clean.py", select=["HL004"])
    assert result.findings == []


def test_hl006_missing_handler():
    result = lint("wire_missing")
    assert active_ids(result) == ["HL006"]
    (finding,) = result.active
    assert "NODE_DISPATCH" in finding.message
    assert "MSG_DATA" in finding.message
    assert "MSG_PING" not in finding.message


def test_hl006_complete_table_is_clean():
    assert lint("wire_complete").findings == []


def test_hl006_no_dispatch_table_at_all():
    result = lint("wire_nodispatch")
    assert active_ids(result) == ["HL006"]
    assert "no *_DISPATCH table" in result.active[0].message


def test_select_and_ignore_filter_rules():
    everything = lint("global_rng_violation.py")
    assert "HL002" in active_ids(everything)
    ignored = lint("global_rng_violation.py", ignore=("HL002",))
    assert "HL002" not in active_ids(ignored)


def test_exclude_glob_skips_files():
    result = lint("core", exclude=("*wall_clock_violation*",))
    assert all("wall_clock_violation" not in f.path
               for f in result.findings)


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    result = run_lint([str(bad)], LintConfig())
    assert [f.rule_id for f in result.findings] == [PARSE_ERROR_ID]


def test_file_wide_suppression(tmp_path):
    waived = tmp_path / "waived.py"
    waived.write_text(
        "# herdlint: disable-file=HL002\n"
        "import random\n\n\n"
        "def f():\n"
        "    return random.random(), random.randint(0, 3)\n")
    result = run_lint([str(waived)], LintConfig())
    assert result.active == []
    assert len(result.suppressed) == 2


def test_findings_are_sorted_and_deduplicated():
    result = lint("core", "global_rng_violation.py")
    keys = [f.sort_key() for f in result.findings]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_registry_has_the_documented_rules():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == sorted(ids)
    assert {"HL001", "HL002", "HL003", "HL004", "HL005", "HL006",
            "HL007", "HL101", "HL102", "HL103"} <= set(ids)
    assert len(ids) >= 10
    for rule in all_rules():
        assert rule.title and rule.rationale
