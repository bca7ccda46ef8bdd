#!/usr/bin/env python3
"""Chaos: mix crash, SP loss mid-call, failover, and re-join.

Runs the Herd failure model (§3.1, §3.5, §3.6.4) end to end on virtual
time: a live zone carries a real call at codec-frame granularity while
a fault plan (1) crashes a mix *uncleanly* — its direct clients are
orphaned and re-join through the surviving mix with exponential
backoff, retrying while the directory still lists the dead mix — and
(2) kills a superpeer mid-call, so the active call leg fails over to a
channel of the surviving SP via a re-GRANT and the voice stream
resumes.  Every action lands on a structured timeline, and the whole
run replays bit-for-bit from its seed.

Run:  PYTHONPATH=src python examples/chaos_failover.py
"""

from repro.faults.plan import FaultKind, FaultSpec
from repro.scenario import Scenario, ZoneShape, execute


def main() -> None:
    print("=== Herd chaos: crash, failover, recovery ===\n")

    # seed 7: one orphan needs 4 join attempts (directory still lists
    # the dead mix until detection), so the backoff path is visible.
    scenario = Scenario(
        name="chaos", seed=7, horizon_s=7.5, round_interval_s=0.05,
        zone=ZoneShape(n_clients=8, n_direct_clients=4),
        faults=(
            FaultSpec(kind=FaultKind.MIX_CRASH, at_s=2.0,
                      target="zone-ctl/mix-0", duration_s=5.0,
                      detection_delay_s=1.0),
            FaultSpec(kind=FaultKind.SP_CRASH, at_s=3.0,
                      target="zone-live/sp-1"),
        ))
    plan = scenario.plan()
    print("fault plan (signature %s...):" % plan.signature()[:12])
    for spec in plan:
        window = f" for {spec.duration_s}s" if spec.duration_s else ""
        detect = (f", detected after {spec.detection_delay_s}s"
                  if spec.detection_delay_s else "")
        print(f"  t={spec.at_s:>4}s  {spec.kind.value:<11} "
              f"{spec.target}{window}{detect}")

    print("\nrunning: 1 call pair live, faults firing mid-run ...")
    report = execute(scenario)

    print("\nfault/recovery timeline:")
    for entry in report.timeline:
        detail = f"  ({entry.detail})" if entry.detail else ""
        print(f"  t={entry.time_s:>6.3f}s  {entry.action:<11} "
              f"{entry.kind:<10} {entry.target}{detail}")

    print("\nmid-call failover:")
    for record in report.failovers:
        if record.survived:
            print(f"  call leg on channel {record.old_channel} "
                  f"re-allocated to channel {record.new_channel} "
                  "and resumed")
        else:
            print(f"  call leg on channel {record.old_channel} "
                  "dropped (no surviving free channel)")
    for client_id, cells in sorted(report.post_failover_voice.items()):
        print(f"  {client_id}: {cells} voice cells received "
              "AFTER the failover")

    print("\nre-joins after the mix crash:")
    for stats in report.rejoins:
        print(f"  {stats.client_id}: rejoined in "
              f"{stats.latency_s:.2f}s after {stats.attempts} "
              f"attempt(s), {stats.backoff_s:.2f}s of backoff")

    print(f"\ncall survival rate: {report.call_survival_rate:.0%}")
    print(f"all orphans re-joined: {report.all_rejoined}")
    print(f"events processed: {report.events_processed}, "
          f"rounds: {report.rounds_run}")

    assert report.mid_call_failover_demonstrated
    assert report.all_rejoined
    print("\nOK: the call survived an SP loss and every orphan "
          "re-joined.")


if __name__ == "__main__":
    main()
