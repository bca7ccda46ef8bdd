#!/usr/bin/env python3
"""The §4.1.4 experiment: intersection attacks on voice metadata.

Generates a synthetic mobile call trace (the stand-in for the paper's
370M-call dataset), then mounts the start/end-time intersection attack
against three targets:

* **Tor** — no chaffing, flow start/end visible: ~98% of calls traced.
* **Herd** — clients chaffed 24/7: no observables, nothing traced.
* A **long-term intersection attack** against one user, unchaffed vs
  Herd.

Run:  python examples/intersection_attack.py
"""

from repro.attacks.intersection import herd_observable_trace
from repro.attacks.longterm import (
    herd_candidate_rounds,
    long_term_intersection,
    unchaffed_candidate_rounds,
)
from repro.baselines.tor import TorModel
from repro.workload.generator import SyntheticTraceConfig, generate_trace


def main() -> None:
    print("=== Intersection attacks on voice calls ===\n")
    cfg = SyntheticTraceConfig(n_users=5_000, days=3, seed=42,
                               max_degree=150)
    trace = generate_trace(cfg)
    print(f"workload: {len(trace):,} calls among {cfg.n_users:,} users "
          f"over {cfg.days} days "
          f"(peak duty cycle {trace.peak_duty_cycle(cfg.n_users):.1%})\n")

    # --- Tor: the adversary sees every flow's start and end. ---
    tor = TorModel()
    for bin_width in (1.0, 60.0):
        result = tor.run_intersection_attack(trace, bin_width)
        print(f"Tor, {bin_width:4.0f}s bins: "
              f"{result.traced_fraction:6.1%} of calls traced "
              f"(paper: 98.3% at 1s)")

    # --- Herd: chaffed links produce no per-call observables. ---
    herd_result = tor.run_intersection_attack(
        herd_observable_trace(trace), 1.0)
    print(f"Herd,    1s bins: {herd_result.traced_calls} calls traced "
          "(clients are connected and chaffed continuously)\n")

    # --- Long-term intersection against one busy user. ---
    degrees = trace.contact_degrees()
    target = max(degrees, key=degrees.get)
    rounds = unchaffed_candidate_rounds(trace, target)
    unchaffed = long_term_intersection(rounds)
    print(f"long-term attack on user {target} "
          f"({len(rounds)} observation rounds):")
    print(f"  unchaffed: candidate set "
          f"{unchaffed.set_sizes[0]} -> {unchaffed.final_anonymity} "
          f"(identified: {unchaffed.identified or unchaffed.final_anonymity <= 2})")
    herd_lt = long_term_intersection(
        herd_candidate_rounds(set(range(cfg.n_users)), len(rounds)))
    print(f"  Herd:      candidate set stays at "
          f"{herd_lt.final_anonymity:,} across every round "
          "(call activity is unobservable)")


if __name__ == "__main__":
    main()
