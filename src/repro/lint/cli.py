"""herdlint command line: ``python -m repro.lint`` / ``repro lint``.

Exit codes: 0 clean, 1 unsuppressed findings.  The one waiver
mechanism is the inline ``# herdlint: disable=`` comment.

``--no-flow`` skips the dataflow rules (HL004/HL007/HL10x) and runs
only the syntactic rule set.  Linting a file subset is supported:
whole-tree rules like HL006 downgrade to notes on a partial scan.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.engine import LintConfig, all_rules, run_lint


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach herdlint's options to ``parser`` (shared between the
    standalone entry point and the ``repro lint`` subcommand)."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="output_format",
                        help="report format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of "
                             "stdout")
    parser.add_argument("--select", metavar="IDS", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="IDS", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--exclude", metavar="GLOB", action="append",
                        default=[],
                        help="glob of paths to skip (repeatable)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="include suppressed findings in text "
                             "output")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    flow = parser.add_argument_group(
        "dataflow analysis (herdflow)")
    flow.add_argument("--no-flow", action="store_true",
                      help="skip the dataflow rules (HL004/HL007/"
                           "HL10x); syntactic rules only")


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",")
            if part.strip()]


def run(args: argparse.Namespace) -> int:
    """Execute a lint run described by a parsed namespace."""
    # Imported lazily: the reporters pull in the whole rule set.
    from repro.lint.reporters import RENDERERS, render_text

    if args.list_rules:
        for rule in all_rules():
            scope = ("everywhere" if rule.scope is None
                     else "/".join(rule.scope))
            print(f"{rule.rule_id}  {rule.title}  [{scope}]")
        return 0

    select = _split_ids(args.select)
    ignore = _split_ids(args.ignore) or []
    config = LintConfig(
        select=tuple(select) if select is not None else None,
        ignore=tuple(ignore),
        exclude=tuple(args.exclude),
        flow=not args.no_flow)
    result = run_lint(args.paths, config)

    renderer = RENDERERS[args.output_format]
    if renderer is render_text:
        report = render_text(result,
                             show_suppressed=args.show_suppressed)
    else:
        report = renderer(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        if result.active:
            print(f"herdlint: {len(result.active)} findings "
                  f"(report: {args.output})", file=sys.stderr)
    else:
        sys.stdout.write(report)
    return 1 if result.active else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="herdlint: protocol-aware static analysis for the "
                    "Herd reproduction — syntactic rules plus the "
                    "herdflow dataflow engine (taint tracking, "
                    "determinism, concurrency safety)")
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))
