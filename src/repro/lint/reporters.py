"""Reporters: render a :class:`LintResult` as text, JSON, or SARIF.

SARIF 2.1.0 output lets the CI job upload findings where code-scanning
UIs can ingest them; JSON is the stable machine interface for scripts;
text is the human default.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.engine import Finding, LintResult, all_rules

HERDLINT_VERSION = "2.0.0"


def render_text(result: LintResult, show_suppressed: bool = False) -> str:
    lines: List[str] = []
    for finding in result.findings:
        if finding.suppressed and not show_suppressed:
            continue
        if finding.suppressed:
            marker = " (suppressed)"
        elif finding.severity == "note":
            marker = " (note)"
        else:
            marker = ""
        lines.append(f"{finding.path}:{finding.line}:{finding.col}: "
                     f"{finding.rule_id} {finding.message}{marker}")
    active = len(result.active)
    extras = [f"{len(result.suppressed)} suppressed"]
    if result.notes:
        extras.append(f"{len(result.notes)} notes")
    extras.append(f"{result.files_scanned} files scanned")
    lines.append(f"herdlint: {active} finding"
                 f"{'' if active == 1 else 's'} "
                 f"({', '.join(extras)})")
    return "\n".join(lines) + "\n"


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "rule": finding.rule_id,
        "message": finding.message,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "severity": finding.severity,
        "suppressed": finding.suppressed,
    }


def render_json(result: LintResult) -> str:
    payload = {
        "tool": "herdlint",
        "version": HERDLINT_VERSION,
        "files_scanned": result.files_scanned,
        "findings": [_finding_dict(f) for f in result.findings],
        "summary": {
            "total": len(result.findings),
            "active": len(result.active),
            "suppressed": len(result.suppressed),
            "notes": len(result.notes),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_sarif(result: LintResult) -> str:
    rules_meta = [{
        "id": rule.rule_id,
        "name": type(rule).__name__,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
        "defaultConfiguration": {"level": rule.severity},
    } for rule in all_rules()]
    results = []
    for finding in result.findings:
        entry: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "level": finding.severity,
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": finding.line,
                               "startColumn": finding.col},
                },
            }],
        }
        if finding.suppressed:
            entry["suppressions"] = [{"kind": "inSource"}]
        results.append(entry)
    sarif = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "herdlint",
                    "informationUri": "https://example.invalid/herdlint",
                    "version": HERDLINT_VERSION,
                    "rules": rules_meta,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(sarif, indent=2, sort_keys=True) + "\n"


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}
