"""Federated Herd: the complete inter-zone data path, end to end.

Combines every mechanism of the system into one executable scenario —
the paper's "up to seven [hops] if optional SPs are used" path:

    caller → SP → mix_A  ⇒ (circuit splice) ⇒  mix_B → SP → callee

* The caller and callee sit *behind superpeers* in different zones:
  their packets ride chaffed channels, get XOR-combined by the SP, and
  decoded by the mix (§3.6).
* The call is a :class:`~repro.core.rendezvous.CallSession` (splice,
  in-band INVITE/ACCEPT, and every frame sealed, carried across the
  splice and opened by it); this module adds the SP channels: the
  sealed cell rides the caller's channel up, and the callee's mix
  sends it on as a downstream VOIP packet on the callee's (§3.2–3.3).
* The callee's client trial-decrypts the downstream packet (§3.6.2)
  before the session opens the cell.

Frames carry an explicit sequence number next to the cell (sequence
numbers, like circuit IDs, travel outside layered encryption, §3.2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.callmanager import CallState
from repro.core.client import HerdClient
from repro.core.rendezvous import CallError, CallSession
from repro.crypto.onion import CELL_SIZE
from repro.simulation.live import LiveZone
from repro.simulation.testbed import HerdTestbed, build_testbed

_SEQ = struct.Struct("<Q")


def _split(payload: bytes) -> Tuple[int, bytes]:
    """A channel payload's (sequence number, cell)."""
    (seq,) = _SEQ.unpack_from(payload)
    return seq, payload[_SEQ.size:_SEQ.size + CELL_SIZE]


@dataclass
class FederatedEndpoint:
    """One side of a federated call."""

    zone: LiveZone
    client_id: str
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
            zone.manager.external_router = self._make_router(
                zone_id)
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
        self.session: Optional[CallSession] = None

    # -- setup -------------------------------------------------------------------

    def establish(self) -> None:
        """Control plane: circuits, then the call (splice and in-band
        key agreement), then the channel grant and ring."""
        service = self.net.bed.service
        caller_client = self.caller.client
        callee_client = self.callee.client
        # Standing circuits through each party's own zone mix.
        service.build_standing_circuit(caller_client)
        service.build_standing_circuit(callee_client)
        service.register_callee(callee_client)
        session = service.establish_call(
            caller_client, callee_client.certificate, callee_client)
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
        self.session = session

    # -- voice --------------------------------------------------------------------

    def say(self, direction: str, frame: bytes) -> None:
        """Queue one voice frame, sealed by the session, into the
        sender's SP channel behind its sequence number."""
        if self.session is None:
            raise CallError("call not established")
        seq, cell = self.session.seal(direction, frame)
        sender = (self.caller if direction == "caller_to_callee"
                  else self.callee)
        sender.zone.say(sender.client_id, _SEQ.pack(seq) + cell)

    def on_upstream(self, zone_id: str, numeric_id: int,
                    payload: bytes) -> None:
        """The sender's mix recovered a channel payload for this call:
        carry it across the splice to the receiver's channel."""
        seq, cell = _split(payload)
        # Numeric ids are unique per zone only: match the zone too.
        if (zone_id, numeric_id) == (self.caller.zone.zone_id,
                                     self.caller.numeric_id):
            direction, receiver = "caller_to_callee", self.callee
        else:
            direction, receiver = "callee_to_caller", self.caller
        cell = self.session.carry(direction, seq, cell)
        # The receiver is behind an SP: deliver the layered cell as a
        # downstream VOIP payload on its granted channel.
        receiver.zone.manager.enqueue_voice(
            receiver.numeric_id, _SEQ.pack(seq) + cell)

    def drain_received(self) -> None:
        """Open everything the receivers' agents picked up."""
        for endpoint, direction in ((self.callee, "caller_to_callee"),
                                    (self.caller, "callee_to_caller")):
            agent = endpoint.zone.clients[endpoint.client_id].agent
            while agent.received_cells:
                seq, cell = _split(agent.received_cells.pop(0))
                endpoint.received_frames.append(
                    self.session.open(direction, seq, cell))
