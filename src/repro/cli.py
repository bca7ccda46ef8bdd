"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user one-command access to the headline results:

* ``demo``        — an anonymous end-to-end encrypted call, narrated.
* ``trace``       — generate a synthetic mobile call trace (CSV).
* ``attack``      — the intersection attack on a trace (Tor vs Herd).
* ``blocking``    — the §4.1.6 blocking/offload sweep.
* ``cost``        — the §4.1.6 cost model sweep.
* ``quality``     — the Fig. 7 latency/MOS measurement.
* ``metrics``     — run an instrumented simulation, dump herdscope
  metrics (Prometheus text or JSON).
* ``experiments`` — run the whole evaluation (E1–E9 summaries).
* ``lint``        — herdlint, the protocol-aware static-analysis gate.
* ``scenario``    — run/list/validate the declarative composed-
  adversity scenario corpus (``scenarios/*.toml``); ``scenario run``
  exits nonzero when survival criteria, invariants, or cross-engine
  determinism fail, so CI can gate on it.

Performance is measured from outside: ``python3 -m herdbench run``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.simulation.testbed import build_testbed
    bed = build_testbed()
    bed.add_client("alice", "zone-EU")
    bed.add_client("bob", "zone-NA")
    bed.ready_for_calls("alice")
    bed.ready_for_calls("bob")
    session = bed.call("alice", "bob")
    frame = b"\x42" * 160
    echo = session.send_voice("caller_to_callee", frame)
    ok = echo == frame
    print(f"anonymous call alice(zone-EU) -> bob(zone-NA): "
          f"{session.link_hops()} links, voice frame "
          f"{'delivered and decrypted' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workload.generator import SyntheticTraceConfig, \
        generate_trace
    cfg = SyntheticTraceConfig(n_users=args.users, days=args.days,
                               seed=args.seed,
                               max_degree=min(150, args.users - 1))
    trace = generate_trace(cfg)
    writer = csv.writer(args.output)
    writer.writerow(["caller", "callee", "start_s", "duration_s"])
    for record in trace:
        writer.writerow([record.caller, record.callee,
                         f"{record.start:.3f}",
                         f"{record.duration:.3f}"])
    print(f"wrote {len(trace):,} calls "
          f"(peak duty cycle {trace.peak_duty_cycle(args.users):.2%})",
          file=sys.stderr)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks.intersection import herd_observable_trace, \
        intersection_attack
    from repro.workload.generator import SyntheticTraceConfig, \
        generate_trace
    cfg = SyntheticTraceConfig(n_users=args.users, days=args.days,
                               seed=args.seed,
                               max_degree=min(150, args.users - 1))
    trace = generate_trace(cfg)
    tor = intersection_attack(trace, args.bin)
    herd = intersection_attack(herd_observable_trace(trace), args.bin)
    print(f"{len(trace):,} calls, {args.bin:.0f}s bins")
    print(f"  Tor-carried calls traced:  {tor.traced_fraction:.1%} "
          "(paper: 98.3% at 1s)")
    print(f"  Herd-carried calls traced: {herd.traced_fraction:.1%}")
    return 0


def _cmd_blocking(args: argparse.Namespace) -> int:
    from repro.analysis.bandwidth import sp_savings_fraction
    from repro.simulation.spsim import blocking_sweep
    from repro.workload.generator import SyntheticTraceConfig, \
        generate_trace
    cfg = SyntheticTraceConfig(n_users=args.users, days=args.days,
                               seed=args.seed,
                               max_degree=min(150, args.users - 1))
    trace = generate_trace(cfg)
    sweep = blocking_sweep(trace, n_clients=args.users,
                           clients_per_channel_values=(5, 10, 25, 50),
                           k_values=(2, 3))
    print("clients/channel   k=2       k=3      mix-bandwidth savings")
    for cpc in (5, 10, 25, 50):
        print(f"{cpc:15d}   {sweep[(cpc, 2)].blocking_rate:6.2%}   "
              f"{sweep[(cpc, 3)].blocking_rate:6.2%}   "
              f"{sp_savings_fraction(args.users, cpc):5.0%}")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.analysis.cost import CostModel
    model = CostModel()
    sp_lo, sp_hi = model.per_user_range(args.users, use_sps=True)
    no_lo, no_hi = model.per_user_range(args.users, use_sps=False)
    print(f"zone of {args.users:,} users, $/user/month:")
    print(f"  with superpeers:    ${sp_lo:.2f} - ${sp_hi:.2f}  "
          "(paper $0.10 - $1.14)")
    print(f"  without superpeers: ${no_lo:.2f} - ${no_hi:.2f}  "
          "(paper $10 - $100)")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.simulation.deployment import DeploymentConfig, \
        herd_extra_latency_ms, measure_pair_latencies
    from repro.voip.emodel import EModel
    results = measure_pair_latencies(
        DeploymentConfig(n_probe_packets=args.packets))
    model = EModel(jitter_buffer_ms=20.0)
    print(f"{'pair':8s}{'system':8s}{'one-way':>9s}{'loss':>7s}  band")
    for (src, dst, system), m in sorted(results.items()):
        if src > dst:
            continue
        q = m.quality(model)
        print(f"{src}-{dst:5s}{system:8s}{m.mean_owd_ms:7.0f}ms"
              f"{m.loss_fraction:7.2%}  {q.band}")
    print(f"Herd extra one-way latency: "
          f"{herd_extra_latency_ms(results):.0f} ms (paper ~100 ms)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.api import SimConfig, Simulation
    config = SimConfig(scenario=args.scenario, seed=args.seed,
                       n_clients=args.clients,
                       n_channels=args.channels,
                       call_pairs=args.pairs,
                       trace_path=args.trace,
                       execution=args.engine)
    report = Simulation(config).run(rounds=args.rounds)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_prometheus())
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run
    return run(args)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario.cli import run
    return run(args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import run_evaluation
    report = run_evaluation(n_users=args.users, seed=args.seed)
    print(report.to_markdown())
    if not report.all_shapes_hold:
        print("\nSHAPE FAILURES:", [r.metric for r in
                                    report.failures()])
        return 1
    print("\nall shape criteria hold")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    for name, fn in (("E1 intersection attack", _cmd_attack),
                     ("E4/E5 blocking & offload", _cmd_blocking),
                     ("E6 cost", _cmd_cost),
                     ("E8 call quality", _cmd_quality)):
        print(f"\n=== {name} ===")
        fn(args)
    print("\n(full tables: pytest benchmarks/ -q -s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Herd (SIGCOMM 2015) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="place one anonymous call")

    p_trace = sub.add_parser("trace", help="generate a synthetic trace")
    p_trace.add_argument("--users", type=int, default=5000)
    p_trace.add_argument("--days", type=int, default=1)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--output", type=argparse.FileType("w"),
                         default=sys.stdout)

    p_attack = sub.add_parser("attack", help="intersection attack")
    p_attack.add_argument("--users", type=int, default=5000)
    p_attack.add_argument("--days", type=int, default=1)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--bin", type=float, default=1.0)

    p_block = sub.add_parser("blocking", help="blocking/offload sweep")
    p_block.add_argument("--users", type=int, default=5000)
    p_block.add_argument("--days", type=int, default=2)
    p_block.add_argument("--seed", type=int, default=0)

    p_cost = sub.add_parser("cost", help="cost model sweep")
    p_cost.add_argument("--users", type=int, default=1_000_000)

    p_quality = sub.add_parser("quality", help="Fig. 7 call quality")
    p_quality.add_argument("--packets", type=int, default=300)

    p_metrics = sub.add_parser(
        "metrics", help="instrumented run + herdscope metrics dump")
    p_metrics.add_argument("--scenario", choices=("live", "testbed"),
                           default="live")
    p_metrics.add_argument("--rounds", type=int, default=50)
    p_metrics.add_argument("--seed", type=int, default=20150817)
    p_metrics.add_argument("--clients", type=int, default=12)
    p_metrics.add_argument("--channels", type=int, default=4)
    p_metrics.add_argument("--pairs", type=int, default=2)
    from repro import execution as execution_registry
    p_metrics.add_argument("--engine", dest="engine",
                           choices=execution_registry.plane_names(),
                           default="event",
                           help="execution engine (the metrics are "
                           "byte-identical; batch-v2 runs faster)")
    p_metrics.add_argument("--format", choices=("prom", "json"),
                           default="prom")
    p_metrics.add_argument("--trace", default=None,
                           help="also write a JSONL trace here")

    p_report = sub.add_parser("report",
                              help="paper-vs-measured shape report")
    p_report.add_argument("--users", type=int, default=4000)
    p_report.add_argument("--seed", type=int, default=20150817)

    from repro.lint.cli import add_lint_arguments
    p_lint = sub.add_parser(
        "lint", help="herdlint: determinism & crypto-hygiene checks")
    add_lint_arguments(p_lint)

    from repro.scenario.cli import add_scenario_arguments
    p_scenario = sub.add_parser(
        "scenario",
        help="run/list/validate composed-adversity scenarios")
    add_scenario_arguments(p_scenario)

    p_all = sub.add_parser("experiments", help="run the evaluation")
    p_all.add_argument("--users", type=int, default=5000)
    p_all.add_argument("--days", type=int, default=1)
    p_all.add_argument("--seed", type=int, default=0)
    p_all.add_argument("--bin", type=float, default=1.0)
    p_all.add_argument("--packets", type=int, default=200)

    return parser


_HANDLERS = {
    "demo": _cmd_demo,
    "trace": _cmd_trace,
    "attack": _cmd_attack,
    "blocking": _cmd_blocking,
    "cost": _cmd_cost,
    "quality": _cmd_quality,
    "metrics": _cmd_metrics,
    "report": _cmd_report,
    "experiments": _cmd_experiments,
    "lint": _cmd_lint,
    "scenario": _cmd_scenario,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
