"""Chaos benchmarks: call survival and re-join latency under faults.

Not a paper table — Herd's evaluation assumes a stable deployment — but
the failure model §3.1/§3.5/§3.6.4 describe, quantified: for each
fault class we measure mid-call survival (legs re-allocated to a
surviving SP and still carrying voice) and re-join latency/attempts of
clients orphaned by an unclean mix crash.
"""

import pytest

from repro.faults.plan import FaultKind, FaultSpec
from repro.scenario import Scenario, ZoneShape, execute, run_scenario

from conftest import print_table

_MIX_CRASH = FaultSpec(kind=FaultKind.MIX_CRASH, at_s=2.0,
                       target="zone-ctl/mix-0", duration_s=5.0,
                       detection_delay_s=1.0)
#: Unclean mix crash (1 s detection delay) plus an SP crash mid-call.
SP_CRASH = (_MIX_CRASH,
            FaultSpec(kind=FaultKind.SP_CRASH, at_s=3.0,
                      target="zone-live/sp-1"))
#: Same mix crash, but the SP's link degrades until the mix's
#: SPMonitor blacklists it — the same mid-call failover path.
SP_DEGRADE = (_MIX_CRASH,
              FaultSpec(kind=FaultKind.LINK_DEGRADE, at_s=2.0,
                        target="zone-live/sp-1", duration_s=4.0,
                        loss=0.30, jitter_ms=80.0))


def _scenario(faults=SP_CRASH, horizon_s=6.0):
    return Scenario(name="chaos", horizon_s=horizon_s,
                    round_interval_s=0.05,
                    zone=ZoneShape(n_clients=8, n_direct_clients=4),
                    faults=faults)


@pytest.fixture(scope="module")
def chaos_outcomes():
    return {
        "mix-crash + sp-crash": execute(_scenario(SP_CRASH)),
        "mix-crash + degrade-blacklist":
            execute(_scenario(SP_DEGRADE)),
    }


def test_bench_chaos_call_survival(benchmark, chaos_outcomes):
    benchmark.pedantic(execute, args=(_scenario(horizon_s=4.0),),
                       iterations=1, rounds=1)
    rows = []
    for name, report in chaos_outcomes.items():
        voice = sum(report.post_failover_voice.values())
        rows.append((
            name,
            len(report.failovers),
            len(report.survived_failovers),
            f"{report.call_survival_rate:.0%}",
            voice,
        ))
    print_table(
        "Chaos: mid-call failover per fault class",
        ("fault class", "legs hit", "survived", "survival",
         "post-failover cells"),
        rows)
    for name, report in chaos_outcomes.items():
        # ≥1 documented successful mid-call failover per fault class,
        # with voice actually flowing after the channel switch.
        assert len(report.survived_failovers) >= 1, name
        assert report.mid_call_failover_demonstrated, name
        assert any(e.action == "failover" for e in report.timeline), name
    # The blacklist run must show the monitor doing the killing.
    bl = chaos_outcomes["mix-crash + degrade-blacklist"]
    assert "zone-live/sp-1" in bl.blacklisted_sps
    assert any(e.action == "blacklisted" for e in bl.timeline)


def test_bench_chaos_rejoin_latency(chaos_outcomes):
    rows = []
    for name, report in chaos_outcomes.items():
        lat = [r.latency_s for r in report.rejoins]
        att = [r.attempts for r in report.rejoins]
        rows.append((
            name,
            len(report.rejoins),
            f"{min(lat):.2f}s" if lat else "-",
            f"{max(lat):.2f}s" if lat else "-",
            f"{sum(att) / len(att):.1f}" if att else "-",
        ))
    print_table(
        "Chaos: re-join through surviving mixes (backoff)",
        ("fault class", "orphans", "min latency", "max latency",
         "mean attempts"),
        rows)
    for name, report in chaos_outcomes.items():
        assert report.rejoins, name
        assert report.all_rejoined, name
        for stats in report.rejoins:
            assert stats.attempts >= 1
            assert stats.latency_s > 0


def test_bench_chaos_determinism():
    # Replaying the same seed + plan reproduces the exact timeline and
    # event count — the property that makes chaos runs debuggable.
    first = run_scenario(_scenario(SP_CRASH))
    again = run_scenario(_scenario(SP_CRASH))
    assert again.determinism_key == first.determinism_key
    assert again.timeline == first.timeline
    assert again.detail.events_processed == \
        first.detail.events_processed
