"""Ablations of Herd's design choices (DESIGN.md §4).

Not a paper table, but the design decisions §3 calls out, quantified:

* k (channels per client): blocking vs client bandwidth.
* RANKING vs first-fit dynamic matching.
* Chaff-rate multiple on client links: bandwidth vs burst absorption.
* Rendezvous interposition: hops/latency cost of zone anonymity.
"""

import pytest

from repro.analysis.bandwidth import herd_client_bandwidth_kbps
from repro.simulation.spsim import SPSimConfig, simulate_blocking
from repro.simulation.testbed import build_testbed

from conftest import BENCH_USERS, print_table


@pytest.fixture(scope="module")
def k_sweep(bench_trace):
    results = {}
    for k in (1, 2, 3, 4):
        cfg = SPSimConfig(n_clients=BENCH_USERS,
                          clients_per_channel=25, k=k, seed=2)
        results[k] = simulate_blocking(bench_trace, cfg)
    return results


def test_bench_ablation_k(benchmark, bench_trace, k_sweep):
    cfg = SPSimConfig(n_clients=BENCH_USERS, clients_per_channel=25,
                      k=1, seed=2)
    benchmark(simulate_blocking, bench_trace, cfg)
    rows = [(k, f"{r.blocking_rate:.3%}",
             f"{herd_client_bandwidth_kbps(k):.0f} KB/s")
            for k, r in sorted(k_sweep.items())]
    print_table("Ablation: channels per client (k)",
                ("k", "blocking rate", "client bandwidth"), rows)
    # Blocking decreases in k; bandwidth increases linearly — the
    # paper's "k = 3 provides a good balance".
    rates = [k_sweep[k].blocking_rate for k in (1, 2, 3, 4)]
    assert rates[0] >= rates[1] >= rates[2] >= rates[3]


def test_bench_ablation_matcher(bench_trace):
    rows = []
    rates = {}
    for matcher in ("ranking", "first-fit"):
        cfg = SPSimConfig(n_clients=BENCH_USERS,
                          clients_per_channel=40, k=2, seed=2,
                          matcher=matcher)
        result = simulate_blocking(bench_trace, cfg)
        rates[matcher] = result.blocking_rate
        rows.append((matcher, f"{result.blocking_rate:.3%}"))
    print_table("Ablation: dynamic matcher", ("matcher", "blocking"),
                rows)
    # RANKING is the optimal online algorithm; it must not lose to
    # first-fit by more than noise.
    assert rates["ranking"] <= rates["first-fit"] * 1.3 + 1e-6


def test_bench_ablation_chaff_multiple():
    from repro.core.chaffing import ConstantRateChaffer
    rows = []
    for multiple in (1, 2, 3):
        chaffer = ConstantRateChaffer(rate_multiple=multiple)
        # Burst of 10 cells arriving at once: how many ticks to drain?
        for _ in range(10):
            chaffer.enqueue_payload(b"cell")
        ticks = 0
        while chaffer.pending():
            chaffer.tick()
            ticks += 1
        rows.append((multiple,
                     f"{herd_client_bandwidth_kbps(multiple):.0f} KB/s",
                     f"{ticks * chaffer.interval * 1000:.0f} ms"))
    print_table("Ablation: client-link rate multiple",
                ("multiple", "bandwidth", "10-cell burst drain"), rows)


def test_bench_ablation_rendezvous_interposition():
    """Hops with and without the rendezvous mechanism: interposing
    rendezvous mixes costs hops (and hence alignment latency) but is
    what hides each party's entry mix (invariant I5)."""
    bed = build_testbed()
    caller = bed.add_client("alice", "zone-EU")
    callee = bed.add_client("bob", "zone-NA")
    # Force the typical configuration: entry and rendezvous distinct.
    builder = bed.service.circuit_builder()
    for client in (caller, callee):
        rendezvous = next(m for m in bed.zones[client.zone_id].mix_ids
                          if m != client.mix_id)
        client.build_circuit(builder, [client.mix_id, rendezvous])
    bed.service.register_callee(callee)
    session = bed.call("alice", "bob")
    with_rdv = session.link_hops()
    # Without rendezvous, a mutually-anonymous circuit would still need
    # entry mixes: client→entry→entry→client = 3 links.
    without_rdv = 3
    print_table("Ablation: rendezvous interposition",
                ("configuration", "links caller→callee"),
                [("with rendezvous (zone anonymity)", with_rdv),
                 ("entry mixes only (no zone anonymity)", without_rdv)])
    assert with_rdv <= 5
    assert with_rdv > without_rdv
