"""Rendezvous and end-to-end calls (§3.3).

"A call is established using the rendezvous mechanism as follows.
First, a hidden callee builds a circuit comprising a mix and rendezvous
mix in her trust zone and uses it to publish her rendezvous mix in the
zone directory.  The caller follows the same procedure [...] To make a
call, a caller looks up the callee's rendezvous mix in the directory of
the zone contained in the callee's certificate and initiates a
handshake with the hidden callee.  If the call is accepted, the two
clients communicate via the rendezvous mixes, hence hiding the mixes to
which they attach from each other, thus maintaining zone anonymity."

:class:`RendezvousService` drives registration and call establishment
against live :class:`~repro.core.mix.Mix` objects;
:class:`CallSession` then pumps end-to-end encrypted voice cells over
the two concatenated circuits, hop by hop, exactly as the deployed
system would (every layer peel/add really happens).
"""

from __future__ import annotations

import itertools
import random
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.circuit import Circuit, CircuitBuilder
from repro.core.client import HerdClient
from repro.core.directory import ZoneDirectory
from repro.core.mix import Mix, RelayAction
from repro.crypto.chacha20 import ChaCha20Poly1305
from repro.crypto.kdf import derive_keys
from repro.crypto.onion import unwrap_backward, wrap_onion
from repro.crypto.pki import Certificate
from repro.crypto.x25519 import X25519PrivateKey


class CallError(Exception):
    """Raised when call establishment or relaying fails."""


@dataclass
class CallEndpoint:
    """One side of an established call."""

    client: HerdClient
    circuit: Circuit
    send_seq: int = 0
    recv_seq: int = 0


class RendezvousService:
    """Zone-anonymous call setup over a set of zones.

    ``directories`` maps zone id → :class:`ZoneDirectory`; ``mixes``
    maps mix id → :class:`Mix`.  Clients must already be joined and
    hold standing circuits.
    """

    def __init__(self, directories: Dict[str, ZoneDirectory],
                 mixes: Dict[str, Mix],
                 rng: Optional[random.Random] = None):
        self.directories = directories
        self.mixes = mixes
        self.rng = rng or random.Random(0)
        self._circuit_ids = itertools.count(1)

    def new_circuit_id(self) -> int:
        """A circuit id unique across every mix this service builds
        through.  (On the wire these are per-link ids; one counter
        per service is an acceptable simplification that preserves
        uniqueness.)"""
        return next(self._circuit_ids)

    def circuit_builder(self) -> CircuitBuilder:
        return CircuitBuilder(lambda mix_id: self.mixes[mix_id],
                              self.new_circuit_id, rng=self.rng)

    def build_standing_circuit(self, client: HerdClient,
                               zone_id: Optional[str] = None) -> Circuit:
        """Build the client's entry+rendezvous circuit.  ``zone_id``
        defaults to the client's own zone; passing a different zone
        implements the "alternative, pre-established circuit to a
        different zone" of §3.3."""
        zone_id = zone_id or client.zone_id
        directory = self.directories[zone_id]
        if client.mix_id is None:
            raise CallError("client must join before building circuits")
        if zone_id == client.zone_id:
            entry = client.mix_id
        else:
            entry = directory.pick_mix()
        rendezvous = directory.pick_mix()
        path = [entry] if rendezvous == entry else [entry, rendezvous]
        return client.build_circuit(self.circuit_builder(), path)

    def register_callee(self, client: HerdClient) -> bytes:
        """Publish the client's rendezvous mix so callers can find it;
        returns the rendezvous cookie (the client's public key, per
        §3.3: "client's public key and rendezvous mix IP address")."""
        if client.circuit is None:
            raise CallError("callee needs a standing circuit first")
        cookie = client.identity.public_bytes
        rdv_mix = self.mixes[client.circuit.rendezvous_mix]
        rdv_mix.register_rendezvous_cookie(cookie,
                                           client.circuit.circuit_id)
        directory = self.directories[client.certificate.zone_id]
        directory.publish_rendezvous(cookie, rdv_mix.mix_id)
        return cookie

    def establish_call(self, caller: HerdClient,
                       callee_certificate: Certificate,
                       callee: HerdClient) -> "CallSession":
        """Set up a call: directory lookup, splices at both rendezvous
        mixes, end-to-end key agreement.

        ``callee`` is needed because the callee's half of the key
        agreement runs on its device; everything the *network* learns is
        limited to what the splice state contains (tests assert this).
        """
        if caller.circuit is None or callee.circuit is None:
            raise CallError("both parties need standing circuits")
        callee_zone = callee_certificate.zone_id
        directory = self.directories.get(callee_zone)
        if directory is None:
            raise CallError(f"unknown zone {callee_zone!r} in callee "
                            "certificate")
        cookie = callee_certificate.identity_public
        record = directory.lookup_rendezvous(cookie)
        if record is None:
            raise CallError("callee has no published rendezvous")

        rdv_c = self.mixes[caller.circuit.rendezvous_mix]
        rdv_e = self.mixes[record.rendezvous_mix]
        callee_circuit_id = rdv_e.lookup_cookie(cookie)
        if callee_circuit_id != callee.circuit.circuit_id:
            raise CallError("rendezvous cookie does not match the "
                            "callee's standing circuit")
        # Splice both directions.
        rdv_c.splice(caller.circuit.circuit_id, rdv_e.mix_id,
                     callee_circuit_id)
        rdv_e.splice(callee_circuit_id, rdv_c.mix_id,
                     caller.circuit.circuit_id)

        session = CallSession(
            caller=CallEndpoint(caller, caller.circuit),
            callee=CallEndpoint(callee, callee.circuit),
            mixes=self.mixes,
        )
        session.negotiate_keys(self.rng)
        return session


class CallSession:
    """An established, end-to-end encrypted call.

    Voice frames are encrypted with the negotiated call key, wrapped in
    the sender's onion circuit, relayed through every mix (layer by
    layer), injected backward down the receiver's circuit, and
    decrypted by the receiver — the full data path of Fig. 1.
    """

    def __init__(self, caller: CallEndpoint, callee: CallEndpoint,
                 mixes: Dict[str, Mix]):
        self.caller = caller
        self.callee = callee
        self.mixes = mixes
        self._caller_aead: Optional[ChaCha20Poly1305] = None
        self._callee_aead: Optional[ChaCha20Poly1305] = None
        self.established = False

    # -- raw relay pipeline ---------------------------------------------------

    def _relay(self, sender: CallEndpoint, receiver: CallEndpoint,
               payload: bytes) -> bytes:
        """Push one payload through the concatenated circuits; returns
        what the receiving client's software decrypts off its link."""
        seq = sender.send_seq
        sender.send_seq += 1
        cell = wrap_onion(sender.circuit.keys, payload, seq)
        circuit_id = sender.circuit.circuit_id
        # Forward through the sender's mixes.
        action: Optional[RelayAction] = None
        for mix_id in sender.circuit.path:
            action = self.mixes[mix_id].forward_cell(circuit_id, cell, seq)
            if action.kind == "to_peer_mix":
                break
            if action.kind != "forward":
                raise CallError(f"unexpected relay action {action.kind}")
            cell = action.data
        if action is None or action.kind != "to_peer_mix":
            raise CallError("circuit is not spliced to a peer")
        # Cross to the peer rendezvous mix, then backward to the client.
        peer_mix = self.mixes[action.peer]
        back = peer_mix.inject_backward(action.peer_circuit, action.data,
                                        seq)
        path = receiver.circuit.path
        idx = path.index(peer_mix.mix_id)
        for mix_id in reversed(path[:idx]):
            if back.kind != "backward":
                raise CallError(f"unexpected relay action {back.kind}")
            back = self.mixes[mix_id].backward_cell(
                receiver.circuit.circuit_id, back.data, seq)
        expected_recipient = receiver.client.client_id
        if back.peer != expected_recipient:
            raise CallError(
                f"cell delivered to {back.peer}, expected "
                f"{expected_recipient}")
        out = unwrap_backward(receiver.circuit.keys, back.data, seq)
        receiver.recv_seq = seq + 1
        return out

    # -- key agreement ----------------------------------------------------------

    def negotiate_keys(self, rng: Optional[random.Random] = None) -> None:
        """End-to-end X25519 over the concatenated circuits: the caller
        sends its ephemeral forward; the callee answers backward; both
        derive one AEAD key per direction (§3.2: "Herd VoIP content is
        encrypted end-to-end between the caller and callee using a
        symmetric key negotiated over two circuits concatenated at
        rendezvous mixes")."""
        caller_eph = X25519PrivateKey.generate(rng)
        callee_eph = X25519PrivateKey.generate(rng)
        # Caller → callee: the INVITE with the caller's ephemeral.
        invite = b"HERD-INVITE" + caller_eph.public_bytes
        received = self._relay(self.caller, self.callee, invite)
        if received[:11] != b"HERD-INVITE":
            raise CallError("callee received a malformed INVITE")
        caller_pub_at_callee = received[11:43]
        # Callee → caller: the ACCEPT with the callee's ephemeral.
        accept = b"HERD-ACCEPT" + callee_eph.public_bytes
        received = self._relay(self.callee, self.caller, accept)
        if received[:11] != b"HERD-ACCEPT":
            raise CallError("caller received a malformed ACCEPT")
        callee_pub_at_caller = received[11:43]

        caller_keys = derive_keys(
            caller_eph.exchange(callee_pub_at_caller),
            ("caller_to_callee", "callee_to_caller"),
            context=caller_eph.public_bytes + callee_pub_at_caller)
        callee_keys = derive_keys(
            callee_eph.exchange(caller_pub_at_callee),
            ("caller_to_callee", "callee_to_caller"),
            context=caller_pub_at_callee + callee_eph.public_bytes)
        if caller_keys != callee_keys:
            raise CallError("end-to-end key agreement failed")
        self._caller_aead = ChaCha20Poly1305(
            caller_keys["caller_to_callee"])
        self._callee_aead = ChaCha20Poly1305(
            caller_keys["callee_to_caller"])
        self.established = True

    # -- voice ---------------------------------------------------------------------

    @staticmethod
    def _nonce(seq: int) -> bytes:
        return b"e2e\x00" + struct.pack("<Q", seq)

    def send_voice(self, direction: str, frame: bytes) -> bytes:
        """Send one voice frame ("caller_to_callee" or
        "callee_to_caller"); returns the frame as decrypted by the far
        end."""
        if not self.established:
            raise CallError("call keys not negotiated yet")
        if direction == "caller_to_callee":
            sender, receiver = self.caller, self.callee
            aead = self._caller_aead
        elif direction == "callee_to_caller":
            sender, receiver = self.callee, self.caller
            aead = self._callee_aead
        else:
            raise ValueError(f"unknown direction {direction!r}")
        seq = sender.send_seq  # _relay will consume this sequence
        ciphertext = aead.encrypt(self._nonce(seq), frame)
        delivered = self._relay(sender, receiver, ciphertext)
        return aead.decrypt(self._nonce(seq), delivered)

    # -- path metrics --------------------------------------------------------------

    def link_hops(self) -> int:
        """Number of links a frame crosses caller→callee (the paper's
        "a complete circuit has five hops" for 2-mix circuits)."""
        crossover = 0 if (self.caller.circuit.rendezvous_mix
                          == self.callee.circuit.rendezvous_mix) else 1
        return (len(self.caller.circuit) + len(self.callee.circuit)
                + crossover)
