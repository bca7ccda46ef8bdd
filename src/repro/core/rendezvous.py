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
from typing import Dict, Optional, Tuple

from repro.core.circuit import Circuit, CircuitBuilder
from repro.core.client import HerdClient
from repro.core.directory import ZoneDirectory
from repro.core.mix import Mix, RelayAction
from repro.core.wire import CallSetup, WireError, decode_call_setup, \
    encode_call_setup
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
        self._call_ids = itertools.count(1)

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
            call_id=next(self._call_ids),
        )
        session.negotiate_keys(self.rng)
        return session


class CallSession:
    """An established, end-to-end encrypted call.

    Every voice frame takes one data path (Fig. 1): :meth:`seal`
    encrypts it with the call key and wraps the sender's onion;
    :meth:`carry` relays the cell through every mix, across the
    rendezvous splice and down the receiver's circuit; :meth:`open`
    strips the backward layers and decrypts.  :meth:`send_voice` is
    the three in a row; a driver with its own transport calls them
    apart.
    """

    def __init__(self, caller: CallEndpoint, callee: CallEndpoint,
                 mixes: Dict[str, Mix], call_id: int):
        self.caller = caller
        self.callee = callee
        self.mixes = mixes
        self.call_id = call_id
        self._caller_aead: Optional[ChaCha20Poly1305] = None
        self._callee_aead: Optional[ChaCha20Poly1305] = None
        self.established = False

    def _sides(self, direction: str) -> Tuple[CallEndpoint, CallEndpoint]:
        """(sender, receiver) of ``direction``."""
        if direction == "caller_to_callee":
            return self.caller, self.callee
        if direction == "callee_to_caller":
            return self.callee, self.caller
        raise ValueError(f"unknown direction {direction!r}")

    def _aead(self, direction: str) -> ChaCha20Poly1305:
        if not self.established:
            raise CallError("call keys not negotiated yet")
        return (self._caller_aead if direction == "caller_to_callee"
                else self._callee_aead)

    # -- relay pipeline -----------------------------------------------------

    def _wrap(self, sender: CallEndpoint, payload: bytes,
              aead: Optional[ChaCha20Poly1305] = None) -> Tuple[int, bytes]:
        """Wrap ``payload`` in the sender's onion under its next
        sequence number — sealed first as a record under ``aead`` when
        given — and use the number up only once the cell exists."""
        seq = sender.send_seq
        record = None if aead is None else (aead, self._nonce(seq))
        cell = wrap_onion(sender.circuit.keys, payload, seq, record)
        sender.send_seq = seq + 1
        return seq, cell

    def carry(self, direction: str, seq: int, cell: bytes) -> bytes:
        """Relay a sealed cell through the concatenated circuits;
        returns the cell as the receiver's entry mix hands it to the
        receiver."""
        sender, receiver = self._sides(direction)
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
        return back.data

    # -- key agreement ----------------------------------------------------------

    def _relay(self, direction: str, setup: CallSetup) -> CallSetup:
        """Carry one INVITE or ACCEPT (onion layers only: there is no
        call key yet) and check that one of that kind arrived."""
        sender, receiver = self._sides(direction)
        seq, cell = self._wrap(sender, encode_call_setup(setup))
        name = "ACCEPT" if setup.is_accept else "INVITE"
        try:
            received = decode_call_setup(unwrap_backward(
                receiver.circuit.keys, self.carry(direction, seq, cell),
                seq))
        except WireError as exc:
            raise CallError(f"malformed {name}: {exc}") from exc
        if received.is_accept != setup.is_accept:
            raise CallError(f"expected an {name}")
        return received

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
        invite = self._relay("caller_to_callee", CallSetup(
            False, self.call_id, caller_eph.public_bytes))
        # Callee → caller: the ACCEPT, echoing the INVITE's call id.
        accept = self._relay("callee_to_caller", CallSetup(
            True, invite.call_id, callee_eph.public_bytes))
        if accept.call_id != self.call_id:
            raise CallError(f"ACCEPT for call {accept.call_id}, expected "
                            f"{self.call_id}")

        caller_keys = derive_keys(
            caller_eph.exchange(accept.ephemeral),
            ("caller_to_callee", "callee_to_caller"),
            context=caller_eph.public_bytes + accept.ephemeral)
        callee_keys = derive_keys(
            callee_eph.exchange(invite.ephemeral),
            ("caller_to_callee", "callee_to_caller"),
            context=invite.ephemeral + callee_eph.public_bytes)
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

    def seal(self, direction: str, frame: bytes) -> Tuple[int, bytes]:
        """Sender side: encrypt ``frame`` end to end and wrap it in the
        sender's onion, in one kernel call; returns ``(seq, cell)``.  A
        frame the cell cannot hold with its tag is refused before any
        cipher work and uses no sequence number."""
        sender, _ = self._sides(direction)
        return self._wrap(sender, frame, self._aead(direction))

    def open(self, direction: str, seq: int, cell: bytes) -> bytes:
        """Receiver side: strip the backward layers and decrypt, in one
        kernel call."""
        _, receiver = self._sides(direction)
        return unwrap_backward(receiver.circuit.keys, cell, seq,
                               (self._aead(direction), self._nonce(seq)))

    def send_voice(self, direction: str, frame: bytes) -> bytes:
        """Send one voice frame ("caller_to_callee" or
        "callee_to_caller"); returns the frame as decrypted by the far
        end."""
        seq, cell = self.seal(direction, frame)
        return self.open(direction, seq, self.carry(direction, seq, cell))

    # -- path metrics --------------------------------------------------------------

    def link_hops(self) -> int:
        """Number of links a frame crosses caller→callee (the paper's
        "a complete circuit has five hops" for 2-mix circuits)."""
        crossover = 0 if (self.caller.circuit.rendezvous_mix
                          == self.callee.circuit.rendezvous_mix) else 1
        return (len(self.caller.circuit) + len(self.callee.circuit)
                + crossover)
