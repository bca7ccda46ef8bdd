#!/usr/bin/env python3
"""Quickstart: run a Herd zone through the `repro.api` facade.

One `Simulation` call stands up a live zone (clients, superpeers, a
mix), places anonymous VoIP calls, and drives 50 constant-rate mix
rounds — with every onion layer, DTLS record, and XOR round really
executing.  The run comes back as a `RunReport` whose metrics and
trace were collected by herdscope (`repro.obs`) in *virtual* time, so
the same seed always reproduces the same bytes.

Run:  python examples/quickstart.py
"""

from repro import SimConfig, Simulation


def main() -> None:
    print("=== Herd quickstart ===\n")

    # 1. Configure a run.  SimConfig is keyword-only and validated;
    # the same object also drives "testbed" runs and declared
    # fault scenarios (scenario_def=Scenario(...)).
    # execution picks the engine: "event" schedules per cell (the
    # readable oracle), "batch-v2" runs one run table per round (the
    # fast one) — observationally equivalent.
    config = SimConfig(seed=7, n_clients=12, n_channels=4, call_pairs=2,
                       execution="event")
    report = Simulation(config).run(rounds=50)
    print(f"scenario={report.scenario} seed={report.seed} "
          f"rounds={report.rounds_run}")
    print(f"clients in call: {report.detail['clients_in_call']}")

    # 2. The unobservability invariant (§3.6), read straight from the
    # metrics registry: every enabled channel emits exactly one
    # downstream cell per round — payload, chaff, or control — so the
    # wire census never depends on who is talking.
    payload = report.counter_value("herd_mix_cells_total",
                                   {"kind": "payload"})
    chaff = report.counter_value("herd_mix_cells_total",
                                 {"kind": "chaff"})
    control = report.counter_value("herd_mix_cells_total",
                                   {"kind": "control"})
    total = payload + chaff + control
    print(f"\ndownstream cells: payload={payload:.0f} chaff={chaff:.0f} "
          f"control={control:.0f} (total {total:.0f} = "
          f"{report.rounds_run} rounds x {config.n_channels} channels)")
    assert total == report.rounds_run * config.n_channels

    # 3. What actually crossed each link, by byte count.
    sp_mix = report.counter_value(
        "herd_link_bytes_total",
        {"link": "zone-EU/sp-0->zone-EU/mix-0"})
    print(f"superpeer->mix bytes: {sp_mix:.0f}")

    # 4. The trace bus recorded call setups as spans with virtual
    # start/end times; the full stream can also be written to JSONL
    # via SimConfig(trace_path=...).
    begins = {e.span_id: dict(e.labels) for e in report.trace_events
              if e.name == "call_setup" and e.phase == "begin"}
    setups = [e for e in report.trace_events
              if e.name == "call_setup" and e.phase == "end"]
    print(f"call setups traced: {len(setups)}")
    for evt in setups:
        caller = begins[evt.span_id]["client"]
        print(f"  {caller}: {dict(evt.labels)['outcome']} "
              f"at round {evt.time:.0f}")

    # 5. Determinism: an identically-seeded run reproduces the exact
    # same measurements (the herdscope contract — no wall clock, no
    # unseeded RNG anywhere in the instrumented path).  Running the
    # vectorized batch-v2 engine instead changes *how* the rounds
    # execute, not what they produce: the snapshot is still identical
    # byte for byte (DESIGN.md §9/§13, the observational-equivalence
    # contract).
    again = Simulation(config).run(rounds=50)
    assert again.metrics == report.metrics
    fast_cfg = SimConfig(seed=7, n_clients=12, n_channels=4,
                         call_pairs=2, execution="batch-v2")
    fast = Simulation(fast_cfg).run(rounds=50)
    assert fast.metrics == report.metrics
    print("\nre-ran same seed (event + batch-v2 engines): metrics "
          "snapshots identical.")

    # 6. Export for dashboards or diffing.
    print("\nPrometheus sample:")
    for line in report.to_prometheus().splitlines():
        if line.startswith("herd_mix_cells_total"):
            print(" ", line)


if __name__ == "__main__":
    main()
