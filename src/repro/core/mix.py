"""Mixes: Herd's trusted relay nodes (§3).

A mix

* holds long-term identity and short-term circuit keys, enrolls with
  its zone directory, and publishes a descriptor (§3.2),
* answers circuit CREATE requests and maintains a circuit table
  (:class:`~repro.core.circuit.RelayCircuitState`),
* relays cells: peels its forward layer / adds its backward layer —
  and, as a *rendezvous* mix, terminates a circuit and hands payload
  across to the peer rendezvous mix (§3.3),
* adopts clients directly or redirects them to superpeers, maintains
  per-client session keys, channel membership, and the chaff predictor
  that decodes upstream XOR rounds (§3.6),
* reports utilization to the zone directory (§3.4.2).

Relay methods return :class:`RelayAction` values instead of touching a
network directly, so the same object runs both under synchronous unit
tests and behind the event-driven deployment simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocation import OccupancyIndex, RankingMatcher
from repro.core.channel import Channel
from repro.core.circuit import (
    CreateReply,
    CreateRequest,
    RelayCircuitState,
    mix_process_create,
)
from repro.core.directory import ZoneDirectory
from repro.core.network_coding import (
    ChaffPredictor,
    decode_rounds,
)
from repro.crypto.keys import IdentityKeyPair, SessionKey, ShortTermKeyPair
from repro.crypto.onion import decode_cell, encode_cell, unwrap_layer
from repro.crypto.pki import make_descriptor


@dataclass(frozen=True)
class RelayAction:
    """What the mix wants done with a processed cell.

    ``kind`` ∈ {"forward", "backward", "to_peer_mix", "deliver"}:

    * forward — send ``data`` toward ``peer`` (next hop).
    * backward — send ``data`` toward ``peer`` (previous hop, may be
      the client).
    * to_peer_mix — rendezvous hand-off: ``data`` is raw end-to-end
      payload for circuit ``peer_circuit`` at mix ``peer``.
    * deliver — ``data`` reached this mix as its final destination
      (control traffic).
    """

    kind: str
    peer: Optional[str]
    data: bytes
    peer_circuit: Optional[int] = None


class Mix:
    """One Herd mix."""

    def __init__(self, mix_id: str, directory: ZoneDirectory,
                 rng: Optional[random.Random] = None,
                 address: str = ""):
        self.mix_id = mix_id
        self.directory = directory
        self.zone = directory.zone
        self.rng = rng or random.Random(0)
        self.identity = IdentityKeyPair.generate(self.rng)
        self.short_term = ShortTermKeyPair.generate(self.rng)
        self.zone.add_mix(mix_id)
        self.certificate = directory.enroll(
            mix_id, "mix", self.identity.public_bytes,
            self.short_term.public_bytes)
        directory.publish_descriptor(make_descriptor(
            self.identity, mix_id, self.zone.zone_id,
            self.short_term.public_bytes, address or mix_id))

        self.circuits: Dict[int, RelayCircuitState] = {}
        #: Rendezvous cookies → waiting circuit id (callee side).
        self.rendezvous_cookies: Dict[bytes, int] = {}

        # Client-side state (direct clients and clients behind SPs).
        self.client_keys: Dict[str, SessionKey] = {}
        self.predictor = ChaffPredictor({})
        self.channels: Dict[int, Channel] = {}
        #: The channels by member count, which :func:`join_zone` picks
        #: from (§3.6.3); kept with every change to ``channels``.
        self.occupancy = OccupancyIndex()
        self._client_slots: Dict[Tuple[int, int], str] = {}
        self.matcher: Optional[RankingMatcher] = None
        self.cells_relayed = 0

    # -- circuit plumbing ---------------------------------------------------

    def process_create(self, request: CreateRequest, prev_hop: str,
                       next_hop: Optional[str] = None,
                       role: str = "entry") -> CreateReply:
        """Handle a CREATE: install circuit state, return the reply."""
        if request.circuit_id in self.circuits:
            raise ValueError(f"circuit {request.circuit_id} already "
                             f"exists at {self.mix_id}")
        reply, keys = mix_process_create(request, self.rng)
        self.circuits[request.circuit_id] = RelayCircuitState(
            circuit_id=request.circuit_id, hop_keys=keys,
            prev_hop=prev_hop, next_hop=next_hop, role=role)
        return reply

    def circuit_state(self, circuit_id: int) -> RelayCircuitState:
        try:
            return self.circuits[circuit_id]
        except KeyError:
            raise KeyError(f"{self.mix_id} has no circuit {circuit_id}")

    def register_rendezvous_cookie(self, cookie: bytes,
                                   circuit_id: int) -> None:
        """Callee side: bind a cookie to the waiting circuit so a peer
        rendezvous mix can splice calls onto it."""
        self.circuit_state(circuit_id)  # must exist
        self.rendezvous_cookies[cookie] = circuit_id

    def splice(self, circuit_id: int, peer_mix: str,
               peer_circuit: int) -> None:
        """Connect a local rendezvous circuit to a circuit at a peer
        rendezvous mix (call establishment)."""
        state = self.circuit_state(circuit_id)
        if state.role != "rendezvous":
            raise ValueError("only rendezvous circuits can be spliced")
        if state.spliced_circuit is not None and \
                (state.next_hop, state.spliced_circuit) != \
                (peer_mix, peer_circuit):
            raise ValueError(
                f"circuit {circuit_id} already carries a call; one "
                "circuit supports one concurrent call")
        state.next_hop = peer_mix
        state.spliced_circuit = peer_circuit

    def lookup_cookie(self, cookie: bytes) -> int:
        try:
            return self.rendezvous_cookies[cookie]
        except KeyError:
            raise KeyError(f"unknown rendezvous cookie at {self.mix_id}")

    # -- cell relaying ------------------------------------------------------

    def forward_cell(self, circuit_id: int, cell: bytes,
                     sequence: int) -> RelayAction:
        """Peel this mix's forward layer and route the cell."""
        state = self.circuit_state(circuit_id)
        peeled = unwrap_layer(state.hop_keys, cell, sequence,
                              forward=True)
        self.cells_relayed += 1
        if state.role == "rendezvous" and state.spliced_circuit is not None:
            # Terminal hop: verify/strip the cell, hand the raw
            # end-to-end payload to the peer rendezvous mix.
            payload = decode_cell(peeled, state.hop_keys.forward_mac)
            return RelayAction("to_peer_mix", state.next_hop, payload,
                               peer_circuit=state.spliced_circuit)
        if state.next_hop is None:
            payload = decode_cell(peeled, state.hop_keys.forward_mac)
            return RelayAction("deliver", None, payload)
        return RelayAction("forward", state.next_hop, peeled)

    def backward_cell(self, circuit_id: int, cell: bytes,
                      sequence: int) -> RelayAction:
        """Add this mix's backward layer; route toward the client."""
        state = self.circuit_state(circuit_id)
        layered = unwrap_layer(state.hop_keys, cell, sequence,
                               forward=False)
        self.cells_relayed += 1
        return RelayAction("backward", state.prev_hop, layered)

    def inject_backward(self, circuit_id: int, payload: bytes,
                        sequence: int) -> RelayAction:
        """Rendezvous side: originate backward traffic carrying
        ``payload`` down the waiting circuit (encode + own layer)."""
        state = self.circuit_state(circuit_id)
        if state.role != "rendezvous":
            raise ValueError("inject_backward requires a rendezvous "
                             "circuit")
        cell = encode_cell(payload, state.hop_keys.backward_mac)
        layered = unwrap_layer(state.hop_keys, cell, sequence,
                               forward=False)
        self.cells_relayed += 1
        return RelayAction("backward", state.prev_hop, layered)

    # -- client adoption and channels ----------------------------------------

    def adopt_client(self, client_id: str,
                     session_key: SessionKey) -> None:
        """Adopt a client (direct link or behind an SP): store the
        symmetric key s used for all its traffic (§3.5)."""
        if client_id in self.client_keys:
            raise ValueError(f"client {client_id} already adopted")
        self.client_keys[client_id] = session_key

    def configure_channels(self, n_channels: int) -> None:
        """Create the zone's C channels (administrator-controlled,
        §3.6.3)."""
        if self.channels:
            raise RuntimeError("channels already configured")
        self.channels = {i: Channel(i) for i in range(n_channels)}
        self.occupancy = OccupancyIndex(self.channels)

    def open_channel(self) -> int:
        """Add one channel to the configured ones (the administrator
        growing the zone); returns its id.  A call manager sizes its
        static assignment when it is built and does not see it."""
        channel_id = len(self.channels)
        self.channels[channel_id] = Channel(channel_id)
        self.occupancy.add_channel(channel_id)
        return channel_id

    def attach_client_to_channels(self, client_id: str,
                                  channels: List[int],
                                  numeric_id: int) -> Dict[int, int]:
        """Attach an adopted client to its k channels; returns
        channel→slot.  ``numeric_id`` keys the chaff predictor."""
        key = self.client_keys.get(client_id)
        if key is None:
            raise KeyError(f"client {client_id} not adopted")
        slots: Dict[int, int] = {}
        for ch_id in channels:
            channel = self.channels[ch_id]
            slot = channel.add_member(numeric_id)
            self.occupancy.occupy(ch_id)
            slots[ch_id] = slot
            self._client_slots[(ch_id, slot)] = client_id
        self.predictor.add_client(numeric_id, key)
        return slots

    def client_at_slot(self, channel_id: int, slot: int) -> str:
        return self._client_slots[(channel_id, slot)]

    def reset_client_state(self) -> None:
        """Forget every adopted client and all channel membership.

        A mix restarting after a crash keeps its identity keys, zone
        enrollment, and published descriptor, but holds no client
        sessions: orphaned clients must re-run the §3.5 join protocol
        (used by :func:`repro.simulation.churn.recover_mix`)."""
        self.client_keys.clear()
        self.predictor = ChaffPredictor({})
        self.channels = {ch_id: Channel(ch_id) for ch_id in self.channels}
        self.occupancy = OccupancyIndex(self.channels)
        self._client_slots.clear()

    def decode_channel_rounds(
            self, rounds: Sequence[Tuple[int, bytes,
                                         List[Tuple[int, int, bool]]]],
            drawn: Optional[tuple] = None
            ) -> List[Tuple[Optional[int], bytes, List[int]]]:
        """Decode upstream XOR rounds given as ``(channel_id,
        xor_packet, manifests)`` (and ``drawn`` rows, see
        :func:`decode_rounds`).  Each channel's active client is
        channel state (the mix allocated the call), read here, before
        any of the rounds' signals is acted on."""
        channel_rounds = []
        for channel_id, xor_packet, manifests in rounds:
            channel = self.channels[channel_id]
            active = None
            if channel.active_call is not None:
                active = channel.members[channel.active_call]
            channel_rounds.append((xor_packet, manifests, active))
        return decode_rounds(channel_rounds, self.predictor, drawn)

    def decode_channel_round(self, channel_id: int, xor_packet: bytes,
                             manifests: List[Tuple[int, int, bool]]
                             ) -> Tuple[Optional[int], bytes, List[int]]:
        """Decode one upstream XOR round for a channel."""
        return self.decode_channel_rounds(
            [(channel_id, xor_packet, manifests)])[0]

    # -- reporting ------------------------------------------------------------

    def active_calls(self) -> int:
        return sum(1 for ch in self.channels.values() if ch.is_busy)

    def report_utilization(self) -> None:
        self.directory.report_utilization(self.mix_id,
                                          self.active_calls())
