"""Meta-tests: the shipped tree must satisfy its own lint gate.

These are the in-repo mirror of the CI herdlint job — if a change
introduces a wall-clock read, a global-RNG draw, a variable-time MAC
comparison, a secret in a log line, a blocking sleep, or an unhandled
wire message type, the failure shows up here before it reaches CI.
"""

from pathlib import Path

from repro.lint import LintConfig, all_rules, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def test_src_is_herdlint_clean():
    result = run_lint([str(SRC)], LintConfig())
    formatted = "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}"
        for f in result.active)
    assert result.active == [], f"herdlint findings in src/:\n{formatted}"
    assert result.files_scanned >= 80


def test_at_least_six_rules_active():
    assert len(all_rules()) >= 6


def test_tests_and_benchmarks_warn_only_burndown():
    """tests/ and benchmarks/ gate like src; the deliberate
    violations live in tests/lint_fixtures only.  This pins the
    burn-down at zero findings outside the fixture corpus."""
    result = run_lint(
        [str(REPO_ROOT / "tests"), str(REPO_ROOT / "benchmarks")],
        LintConfig(exclude=("*/lint_fixtures/*",)))
    formatted = "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}"
        for f in result.active)
    assert result.active == [], f"burndown regressed:\n{formatted}"


def test_every_rule_documented_in_design_md():
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for rule in all_rules():
        assert rule.rule_id in design, (
            f"{rule.rule_id} missing from DESIGN.md §7")
