"""``python3 -m herdbench {run,compare,selftest}`` (run from the root
of a checkout; ``src/`` is put on ``sys.path`` from here).

``run --workload W`` is the unit every number comes from: one
workload, one pass (untraced, or ``--trace``), in this interpreter.
It prints each metric by name with its unit and ends with the one-line
JSON result of the benchmark contract (``BENCHMARK.json``).  ``run``
without ``--workload`` — or with ``--repeat`` / ``--out`` — runs the
units it is asked for one after another, each in a fresh interpreter,
and gathers their full results into one file for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

from herdbench import ROOT, SCHEMA, add_src_to_path, benchmark_spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="herdbench",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print every "
                                     "metric")
    run.add_argument("--workload", help="one workload (default: all "
                                        "five, one interpreter each)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per pass (default: "
                          "run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", nargs="?", type=int, const=1,
                     default=0, choices=(0, 1),
                     help="the traced pass (per-layer metrics); with "
                          "several units, run it after the untraced "
                          "one")
    run.add_argument("--repeat", type=int, default=1,
                     help="untraced passes per workload")
    run.add_argument("--out", help="write the gathered results here")
    run.add_argument("--trace-out", help="write the spans of a "
                     "traced --workload run here as JSON lines")
    cmp_ = sub.add_parser("compare", help="judge result file B "
                                          "against baseline A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    sub.add_parser("selftest", help="run herdbench/tests")
    return parser


def _print_detail(detail: Dict[str, Any]) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"{'traced' if detail['trace'] else 'untraced'}: "
          f"{detail['ops']} {detail['op_unit']}s in "
          f"{detail['timed_wall_s']:.3f} s; sizes {detail['sizes']}")
    for name, m in detail["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        extra = "".join(f" {k}={v}" for k, v in m.items()
                        if k not in ("value", "unit"))
        print(f"{name} {value} {m['unit']}{extra}")
    if detail["trace"]:
        shares = detail["layers"]["shares"]
        print("# share of the traced operation wall, by span:")
        for span, share in sorted(shares.items(),
                                  key=lambda kv: -kv[1]):
            print(f"#   {span:<28} {share:7.2%}")
    print(f"# attempted={detail['attempted']} "
          f"failed={detail['failed']} correct={detail['correct']} "
          f"exact={detail['exact']} digest={detail['digest']}")
    for note in detail["notes"]:
        print(f"# note: {note}")


def _run_unit(args: argparse.Namespace) -> int:
    """One workload, one pass, in this interpreter."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same hash seed for every run: str-keyed dict layouts, and
        # with them memory and timings, stop varying run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "herdbench"]
                 + sys.argv[1:])
    add_src_to_path()
    from herdbench.harness import contract_line, run_workload
    from herdbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else benchmark_spec()["run_seconds"]
    detail = run_workload(args.workload, args.seed, seconds,
                          trace=bool(args.trace),
                          trace_out=args.trace_out)
    _print_detail(detail)
    # Two JSON lines close the output: the full result (what
    # `run --out` gathers), then the benchmark contract's line.
    print(json.dumps({"herdbench": detail}, sort_keys=True))
    print(json.dumps(contract_line(detail)))
    return 0 if detail["correct"] else 1


def _spawn_unit(workload: str, seed: int, seconds: Optional[float],
                trace: bool, trace_out: Optional[str]
                ) -> Optional[Dict[str, Any]]:
    command = [sys.executable, "-m", "herdbench", "run",
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    sys.stdout.flush()
    if len(lines) < 2:
        return None
    try:
        return json.loads(lines[-2])["herdbench"]
    except (ValueError, KeyError):
        return None


def _run_many(args: argparse.Namespace) -> int:
    add_src_to_path()
    from herdbench.provenance import provenance
    from herdbench.workloads import WORKLOADS
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: List[Dict[str, Any]] = []
    ok = True
    for name in names:
        passes = [False] * args.repeat + [True] * bool(args.trace)
        for traced in passes:
            trace_out = None
            if traced and args.out:
                trace_out = f"{args.out}.trace-{name}.jsonl"
            detail = _spawn_unit(name, args.seed, args.seconds,
                                 traced, trace_out)
            if detail is None:
                print(f"# {name}: the run produced no result",
                      file=sys.stderr)
                ok = False
                continue
            ok = ok and detail["correct"]
            runs.append(detail)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": SCHEMA, "provenance": provenance(),
                       "seed": args.seed, "runs": runs}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {len(runs)} runs to {args.out}")
    return 0 if ok else 1


def _compare(args: argparse.Namespace) -> int:
    from herdbench.compare import compare, render
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows = compare(a, b)
    print(render(rows))
    counts = {v: sum(1 for r in rows if r[2] == v)
              for v in ("ok", "unresolved", "regression")}
    print(f"# {counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['regression']} regression")
    return 1 if counts["regression"] else 0


def _selftest() -> int:
    import unittest
    add_src_to_path()
    suite = unittest.defaultTestLoader.discover(
        os.path.join(ROOT, "herdbench", "tests"), top_level_dir=ROOT)
    outcome = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if outcome.wasSuccessful() else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        return _compare(args)
    if args.command == "selftest":
        return _selftest()
    single = args.workload and args.repeat == 1 and not args.out
    return _run_unit(args) if single else _run_many(args)


if __name__ == "__main__":
    sys.exit(main())
