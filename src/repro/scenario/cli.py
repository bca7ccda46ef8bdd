"""``repro scenario`` — run, list, and validate the scenario corpus.

* ``run <path>...``       — run scenario files (or every ``*.toml`` in
  a directory) on one or more execution engines; exits nonzero when
  any scenario fails its survival criteria, violates an invariant, or
  produces diverging determinism keys across engines — the CI gate.
* ``list <dir>``          — one line per scenario in a corpus.
* ``validate <path>...``  — load + validate only (no execution);
  nonzero exit on the first actionable error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro import execution as execution_registry
from repro.scenario.loader import load_corpus, load_scenario
from repro.scenario.model import Scenario, ScenarioError


def add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="scenario_command", required=True)

    p_run = sub.add_parser(
        "run", help="run scenarios; nonzero exit on any failure")
    p_run.add_argument("paths", nargs="+",
                       help="scenario .toml files and/or directories "
                       "of them")
    p_run.add_argument("--engine", action="append", dest="engine",
                       choices=execution_registry.plane_names(),
                       default=None,
                       help="engine(s) to run each scenario on "
                       "(repeatable; default: event).  With more than "
                       "one, determinism keys must match across "
                       "engines.")
    p_run.add_argument("--processes", dest="net_processes",
                       action="store_true",
                       help="asyncio engine only: host the UDP "
                       "receive endpoints in a separate worker "
                       "process")
    p_run.add_argument("--report-dir", default=None,
                       help="write one <scenario>.json report "
                       "artifact per scenario here")

    p_list = sub.add_parser("list", help="list a scenario corpus")
    p_list.add_argument("paths", nargs="*", default=["scenarios"],
                        help="corpus directories (default: scenarios/)")

    p_val = sub.add_parser(
        "validate", help="load and validate scenarios without running")
    p_val.add_argument("paths", nargs="+",
                       help="scenario .toml files and/or directories")


def _collect(paths: List[str]) -> List[Scenario]:
    scenarios: List[Scenario] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            scenarios.extend(load_corpus(path))
        else:
            scenarios.append(load_scenario(path))
    return scenarios


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenario.report import run_scenario
    engines = args.engine or ["event"]
    try:
        scenarios = _collect(args.paths)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report_dir = Path(args.report_dir) if args.report_dir else None
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)
    failures = 0

    def procs_for(engine: str) -> bool:
        # --processes applies to the real-network engine(s) of the
        # set; a simulator engine beside them just runs in-process.
        plane = execution_registry.resolve(engine)
        return args.net_processes and plane.transport == "udp"

    for scenario in scenarios:
        reports = [run_scenario(scenario, execution=engine,
                                net_processes=procs_for(engine))
                   for engine in engines]
        keys = {r.determinism_key for r in reports}
        determinism_ok = len(keys) == 1
        passed = determinism_ok and all(r.passed for r in reports)
        failures += 0 if passed else 1
        verdict = "ok" if passed else "FAIL"
        engine_label = "/".join(engines)
        head = reports[0]
        # The determinism key is a public content hash, not key
        # material (HL004's taint source excludes determinism_*).
        fingerprint = head.determinism_key[:12]
        print(f"{verdict:4s} {scenario.name:24s} [{engine_label}] "
              f"survival={head.survival['call_survival_rate']:.2f} "
              f"legs={head.survival['call_legs_established']} "
              f"key={fingerprint}")
        if not determinism_ok:
            print("     determinism keys diverge across engines:",
                  file=sys.stderr)
            for report in reports:
                fingerprint = report.determinism_key
                print(f"       {report.engine}: {fingerprint}",
                      file=sys.stderr)
        for report in reports:
            for failure in report.criteria_failures:
                print(f"     [{report.engine}] criteria: "
                      f"{failure}", file=sys.stderr)
            for violation in report.invariant_violations:
                print(f"     [{report.engine}] invariant: "
                      f"{violation}", file=sys.stderr)
        if report_dir is not None:
            artifact = {
                "scenario": scenario.name,
                "scenario_signature": scenario.signature(),
                "engines": {r.engine: r.to_artifact_dict()
                            for r in reports},
                "determinism_match": determinism_ok,
                "passed": passed,
            }
            out = report_dir / f"{scenario.name}.json"
            out.write_text(json.dumps(artifact, indent=2,
                                      sort_keys=True) + "\n")
    total = len(scenarios)
    print(f"{total - failures}/{total} scenario(s) passed on "
          f"{'/'.join(engines)}")
    return 1 if failures else 0


def _cmd_list(args: argparse.Namespace) -> int:
    try:
        scenarios = _collect(args.paths)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for scenario in scenarios:
        axes = []
        if scenario.workload.kind != "constant":
            axes.append(scenario.workload.kind)
        if scenario.churn:
            axes.append(f"churn×{len(scenario.churn)}")
        if scenario.faults:
            axes.append(
                "faults:" + ",".join(sorted(
                    {s.kind.value for s in scenario.faults})))
        if scenario.adversary.kind != "none":
            axes.append(f"adversary:{scenario.adversary.kind}")
        print(f"{scenario.name:24s} seed={scenario.seed} "
              f"horizon={scenario.horizon_s:g}s "
              f"{'; '.join(axes) or 'baseline'}")
        if scenario.description:
            print(f"{'':24s} {scenario.description}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenarios = _collect(args.paths)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for scenario in scenarios:
        print(f"ok   {scenario.name:24s} "
              f"signature={scenario.signature()[:12]}")
    return 0


def run(args: argparse.Namespace) -> int:
    handler = {"run": _cmd_run, "list": _cmd_list,
               "validate": _cmd_validate}[args.scenario_command]
    return handler(args)
