#!/usr/bin/env python3
"""The complete Herd data path: SP channels on both ends of a circuit.

Two zones (EU, NA), each with a mix and a superpeer; the caller and
callee both sit behind their zone's SP.  Every voice frame:

  1. is end-to-end encrypted and onion-wrapped by the caller,
  2. rides a chaffed SP channel (XOR-combined with the other members'
     chaff, recovered by the caller's mix),
  3. crosses the rendezvous splice to the callee's mix,
  4. gains the backward onion layer and goes out as an authenticated
     downstream envelope on the callee's channel,
  5. is trial-decrypted, unwrapped, and AEAD-verified by the callee.

That is the paper's "up to seven [hops] if optional SPs are used" path,
executing for real.

Run:  python examples/federated_call.py
"""

from repro.simulation.federation import FederatedHerd


def main() -> None:
    print("=== Federated Herd call: SPs on both ends ===\n")
    net = FederatedHerd(n_clients_per_zone=6, n_channels=3, k=2,
                        seed=2015)
    print("zones:", ", ".join(net.zones))
    for zone_id, zone in net.zones.items():
        print(f"  {zone_id}: mix {zone.mix.mix_id}, SP {zone.sps[0].sp_id}, "
              f"{len(zone.clients)} clients on "
              f"{len(zone.mix.channels)} channels")

    call = net.call(("zone-EU", "eu-0"), ("zone-NA", "na-0"))
    print("\ncall established:")
    print(f"  caller circuit: {call.caller.client.circuit.path}")
    print(f"  callee circuit: {call.callee.client.circuit.path}")
    caller_agent = net.zones["zone-EU"].clients["eu-0"].agent
    callee_agent = net.zones["zone-NA"].clients["na-0"].agent
    print(f"  caller granted channel {caller_agent.active_channel}, "
          f"callee ringing on channel {callee_agent.active_channel}")

    for i in range(10):
        call.say("caller_to_callee", bytes([65 + i]) * 160)
        call.say("callee_to_caller", bytes([97 + i]) * 160)
    net.run(14)
    call.drain_received()

    callee_heard = "".join(chr(f[0]) for f in
                           call.callee.received_frames)
    caller_heard = "".join(chr(f[0]) for f in
                           call.caller.received_frames)
    print(f"\ncallee decrypted frames: {callee_heard}")
    print(f"caller decrypted frames: {caller_heard}")

    idle = [cid for zone in net.zones.values()
            for cid, live in zone.clients.items()
            if live.agent.received_cells]
    print(f"\nbystanders that decrypted anything: {idle or 'none'}")
    print("both SPs forwarded identical fixed-size XOR rounds the "
          "whole time —")
    print("they carried the call without ever being able to see it.")


if __name__ == "__main__":
    main()
