"""Federated Herd: the complete inter-zone data path, end to end.

Combines every mechanism of the system into one executable scenario —
the paper's "up to seven [hops] if optional SPs are used" path:

    caller → SP → mix_A  ⇒ (circuit splice) ⇒  mix_B → SP → callee

* The caller and callee sit *behind superpeers* in different zones:
  their packets ride chaffed channels, get XOR-combined by the SP, and
  decoded by the mix (§3.6).
* The payload each frame is a real **onion cell**: the caller wraps the
  end-to-end-encrypted frame in its circuit's layers; the caller's mix
  peels its layer and hands the raw e2e payload across the rendezvous
  splice; the callee's mix adds its backward layer and enqueues the
  cell as a downstream VOIP packet on the callee's channel (§3.2–3.3).
* The callee's client trial-decrypts the downstream packet, strips the
  backward layers, and decrypts the end-to-end AEAD (§3.6.2).

Frames carry an explicit sequence number next to the cell (sequence
numbers, like circuit IDs, travel outside layered encryption, §3.2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.callmanager import CallState
from repro.core.client import HerdClient
from repro.core.rendezvous import CallError
from repro.crypto.chacha20 import ChaCha20Poly1305
from repro.crypto.kdf import derive_keys
from repro.crypto.onion import (
    CELL_SIZE,
    unwrap_backward,
    wrap_onion,
)
from repro.crypto.x25519 import X25519PrivateKey
from repro.simulation.live import LiveZone
from repro.simulation.testbed import HerdTestbed, build_testbed

_SEQ = struct.Struct("<Q")


@dataclass
class FederatedEndpoint:
    """One side of a federated call."""

    zone: LiveZone
    client_id: str
    send_seq: int = 0
    received_frames: List[bytes] = field(default_factory=list)

    @property
    def client(self) -> HerdClient:
        return self.zone.clients[self.client_id].client

    @property
    def numeric_id(self) -> int:
        return self.zone.clients[self.client_id].numeric_id


class FederatedHerd:
    """Two live zones sharing one PKI, connected by the mix mesh."""

    def __init__(self, n_clients_per_zone: int = 6, n_channels: int = 3,
                 k: int = 2, seed: int = 20150817):
        self.bed: HerdTestbed = build_testbed(
            [("zone-EU", "dc-eu", 1), ("zone-NA", "dc-na", 1)],
            seed=seed)
        self.zones: Dict[str, LiveZone] = {}
        for zone_id, prefix in (("zone-EU", "eu"), ("zone-NA", "na")):
            zone = LiveZone(n_clients=n_clients_per_zone,
                            n_channels=n_channels, k=k, seed=seed,
                            bed=self.bed, zone_id=zone_id,
                            client_prefix=prefix)
            zone.external_router = self._make_router(zone_id)
            self.zones[zone_id] = zone
        self.calls: List[FederatedCall] = []
        self._route: Dict[Tuple[str, int], FederatedCall] = {}

    def _make_router(self, zone_id: str):
        def route(numeric_id: int, payload: bytes) -> None:
            call = self._route.get((zone_id, numeric_id))
            if call is not None:
                call.on_upstream(zone_id, numeric_id, payload)
        return route

    def step(self) -> None:
        for zone in self.zones.values():
            zone.step()

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.step()

    def call(self, caller: Tuple[str, str],
             callee: Tuple[str, str]) -> "FederatedCall":
        """Establish a federated call: ``caller``/``callee`` are
        (zone_id, client_id) pairs."""
        call = FederatedCall(
            self,
            FederatedEndpoint(self.zones[caller[0]], caller[1]),
            FederatedEndpoint(self.zones[callee[0]], callee[1]))
        call.establish()
        self.calls.append(call)
        key_a = (caller[0], call.caller.numeric_id)
        key_b = (callee[0], call.callee.numeric_id)
        self._route[key_a] = call
        self._route[key_b] = call
        return call


class FederatedCall:
    """A call across zones, SP channels on both ends."""

    def __init__(self, net: FederatedHerd, caller: FederatedEndpoint,
                 callee: FederatedEndpoint):
        self.net = net
        self.caller = caller
        self.callee = callee
        self._aead: Dict[str, ChaCha20Poly1305] = {}
        self.established = False

    # -- setup -------------------------------------------------------------------

    def establish(self) -> None:
        """Control plane: circuits, rendezvous splice, channel grants,
        and the end-to-end key (negotiated out of band here — the
        in-band version is exercised by CallSession)."""
        service = self.net.bed.service
        caller_client = self.caller.client
        callee_client = self.callee.client
        # Standing circuits through each party's own zone mix.
        service.build_standing_circuit(caller_client)
        service.build_standing_circuit(callee_client)
        service.register_callee(callee_client)
        # Splice at the two rendezvous mixes.
        rdv_c = self.net.bed.mixes[caller_client.circuit.rendezvous_mix]
        rdv_e = self.net.bed.mixes[callee_client.circuit.rendezvous_mix]
        rdv_c.splice(caller_client.circuit.circuit_id, rdv_e.mix_id,
                     callee_client.circuit.circuit_id)
        rdv_e.splice(callee_client.circuit.circuit_id, rdv_c.mix_id,
                     caller_client.circuit.circuit_id)
        # Channel allocation on both sides (signal + incoming).
        caller_zone = self.caller.zone
        callee_zone = self.callee.zone
        caller_zone.clients[self.caller.client_id].agent.start_outgoing()
        caller_zone.run(2)
        callee_zone.manager.place_incoming(self.callee.numeric_id)
        callee_zone.run(2)
        if caller_zone.state_of(self.caller.client_id) is not \
                CallState.IN_CALL:
            raise CallError("caller was not granted a channel")
        if callee_zone.state_of(self.callee.client_id) is not \
                CallState.IN_CALL:
            raise CallError("callee did not receive the incoming call")
        # End-to-end keys.
        eph_a = X25519PrivateKey.generate(self.net.bed.rng)
        eph_b = X25519PrivateKey.generate(self.net.bed.rng)
        shared = eph_a.exchange(eph_b.public_bytes)
        keys = derive_keys(shared,
                           ("caller_to_callee", "callee_to_caller"),
                           context=eph_a.public_bytes
                           + eph_b.public_bytes)
        self._aead = {d: ChaCha20Poly1305(k) for d, k in keys.items()}
        self.established = True

    # -- voice --------------------------------------------------------------------

    @staticmethod
    def _nonce(seq: int) -> bytes:
        return b"fed\x00" + _SEQ.pack(seq)

    def say(self, direction: str, frame: bytes) -> None:
        """Queue one voice frame into the sender's SP channel: e2e
        encrypt, wrap the onion, prepend the sequence number."""
        if not self.established:
            raise CallError("call not established")
        sender = (self.caller if direction == "caller_to_callee"
                  else self.callee)
        seq = sender.send_seq
        sender.send_seq += 1
        ciphertext = self._aead[direction].encrypt(self._nonce(seq),
                                                   frame)
        cell = wrap_onion(sender.client.circuit.keys, ciphertext, seq)
        sender.zone.say(sender.client_id, _SEQ.pack(seq) + cell)

    def on_upstream(self, zone_id: str, numeric_id: int,
                    payload: bytes) -> None:
        """The sender's mix recovered a channel payload for this call:
        push it through the circuit splice to the receiver's channel."""
        seq = _SEQ.unpack(payload[:_SEQ.size])[0]
        cell = payload[_SEQ.size:_SEQ.size + CELL_SIZE]
        # Numeric ids are unique per zone only: match the zone too.
        if (zone_id, numeric_id) == (self.caller.zone.zone_id,
                                     self.caller.numeric_id):
            sender, receiver = self.caller, self.callee
        else:
            sender, receiver = self.callee, self.caller
        mixes = self.net.bed.mixes
        circuit_id = sender.client.circuit.circuit_id
        action = mixes[sender.client.circuit.entry_mix].forward_cell(
            circuit_id, cell, seq)
        while action.kind == "forward":
            action = mixes[action.peer].forward_cell(circuit_id,
                                                     action.data, seq)
        if action.kind != "to_peer_mix":
            raise CallError(f"unexpected relay action {action.kind}")
        peer_mix = mixes[action.peer]
        back = peer_mix.inject_backward(action.peer_circuit,
                                        action.data, seq)
        # Walk any remaining backward hops toward the receiver's mix.
        path = receiver.client.circuit.path
        idx = path.index(peer_mix.mix_id)
        for mix_id in reversed(path[:idx]):
            back = mixes[mix_id].backward_cell(
                receiver.client.circuit.circuit_id, back.data, seq)
        # The receiver is behind an SP: deliver the layered cell as a
        # downstream VOIP payload on its granted channel.
        receiver.zone.manager.enqueue_voice(
            receiver.numeric_id, _SEQ.pack(seq) + back.data)

    def drain_received(self) -> None:
        """Decrypt everything the receivers' agents picked up."""
        for endpoint, direction in ((self.callee, "caller_to_callee"),
                                    (self.caller, "callee_to_caller")):
            agent = endpoint.zone.clients[endpoint.client_id].agent
            while agent.received_cells:
                payload = agent.received_cells.pop(0)
                seq = _SEQ.unpack(payload[:_SEQ.size])[0]
                cell = payload[_SEQ.size:_SEQ.size + CELL_SIZE]
                ciphertext = unwrap_backward(
                    endpoint.client.circuit.keys, cell, seq)
                frame = self._aead[direction].decrypt(
                    self._nonce(seq), ciphertext)
                endpoint.received_frames.append(frame)
