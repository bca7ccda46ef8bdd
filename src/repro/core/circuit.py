"""Incremental circuit construction (§3.2).

"Clients build circuits incrementally, negotiating a symmetric key with
each mix on the circuit, one hop at the time, using s over DTLS links."

Herd borrows its signaling and cryptographic protocol from Tor, so the
construction mirrors Tor's CREATE/EXTEND:

* The client sends a :class:`CreateRequest` — an ephemeral X25519
  public key — to the next mix (relayed through the partial circuit).
* The mix answers with a :class:`CreateReply` — its own ephemeral key
  plus a key-confirmation MAC — and installs a
  :class:`RelayCircuitState` entry in its circuit table.
* Both sides derive the hop's four symmetric keys (forward/backward
  stream + MAC keys, :class:`~repro.crypto.onion.HopKeys`).

A standard Herd circuit has two mixes: the client's *entry* mix and a
*rendezvous* mix in the same zone (invariant I4).  The full five-hop
path caller→entry→rdv⟺rdv'→entry'→callee arises from concatenating two
such circuits at the rendezvous (see :mod:`repro.core.rendezvous`).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.kdf import hkdf_sha256
from repro.crypto.onion import HopKeys, OnionCircuitKeys
from repro.crypto.x25519 import X25519PrivateKey

_CONFIRM_LABEL = b"herd-create-confirm"


@dataclass(frozen=True)
class CreateRequest:
    """Client→mix: open a hop.  Carries the client's ephemeral key and
    the circuit id the hop will be known by on the client-facing link."""

    circuit_id: int
    client_ephemeral: bytes


@dataclass(frozen=True)
class CreateReply:
    """Mix→client: the mix's ephemeral key plus key confirmation."""

    circuit_id: int
    mix_ephemeral: bytes
    confirmation: bytes


def _derive_hop(shared: bytes, client_eph: bytes,
                mix_eph: bytes) -> Tuple[HopKeys, bytes]:
    context = client_eph + mix_eph
    keys = HopKeys.from_shared_secret(shared, context=context)
    confirm_key = hkdf_sha256(shared, info=b"confirm" + context)
    confirmation = hmac.new(confirm_key, _CONFIRM_LABEL,
                            hashlib.sha256).digest()[:16]
    return keys, confirmation


class ClientHopHandshake:
    """Client side of one hop's key negotiation."""

    def __init__(self, circuit_id: int,
                 rng=None):
        self.circuit_id = circuit_id
        self._ephemeral = X25519PrivateKey.generate(rng)

    def request(self) -> CreateRequest:
        return CreateRequest(self.circuit_id,
                             self._ephemeral.public_bytes)

    def finish(self, reply: CreateReply) -> HopKeys:
        """Process the mix's reply; raises ValueError on a bad
        confirmation (MITM or corruption)."""
        if reply.circuit_id != self.circuit_id:
            raise ValueError("create reply for a different circuit")
        shared = self._ephemeral.exchange(reply.mix_ephemeral)
        keys, confirmation = _derive_hop(
            shared, self._ephemeral.public_bytes, reply.mix_ephemeral)
        if not hmac.compare_digest(confirmation, reply.confirmation):
            raise ValueError("hop key confirmation failed")
        return keys


def mix_process_create(request: CreateRequest,
                       rng=None) -> Tuple[CreateReply, HopKeys]:
    """Mix side of the hop handshake: returns the reply to send and the
    hop keys to install in the circuit table."""
    ephemeral = X25519PrivateKey.generate(rng)
    shared = ephemeral.exchange(request.client_ephemeral)
    keys, confirmation = _derive_hop(
        shared, request.client_ephemeral, ephemeral.public_bytes)
    reply = CreateReply(request.circuit_id, ephemeral.public_bytes,
                        confirmation)
    return reply, keys


@dataclass
class RelayCircuitState:
    """One mix's entry in its circuit table.

    ``prev_hop``/``next_hop`` are link peers (invariant I2: an interior
    mix knows only these); ``hop_keys`` peel/add this mix's layer;
    ``role`` is "entry", "middle", or "rendezvous".
    """

    circuit_id: int
    hop_keys: HopKeys
    prev_hop: str
    next_hop: Optional[str] = None
    role: str = "entry"
    #: For a rendezvous mix: the circuit id spliced onto this one.
    spliced_circuit: Optional[int] = None


@dataclass
class Circuit:
    """The client's view of an established circuit."""

    circuit_id: int
    #: Mix ids along the path, entry first.
    path: List[str]
    keys: OnionCircuitKeys

    @property
    def entry_mix(self) -> str:
        return self.path[0]

    @property
    def rendezvous_mix(self) -> str:
        return self.path[-1]

    def __len__(self) -> int:
        return len(self.path)


class CircuitBuilder:
    """Builds a client circuit hop by hop against live mix objects.

    ``mix_resolver`` maps a mix id to an object exposing
    ``process_create(request) -> CreateReply`` (the
    :class:`~repro.core.mix.Mix` API); ``new_circuit_id`` hands out
    the id of each circuit built.  Extension requests are relayed
    by the already-built prefix in a real deployment; here the builder
    performs the same cryptographic exchanges in order, and the mixes
    install identical state, which is what the simulations exercise.
    """

    def __init__(self, mix_resolver, new_circuit_id, rng=None):
        self._resolve = mix_resolver
        self._new_circuit_id = new_circuit_id
        self._rng = rng

    def build(self, path: List[str], client_name: str) -> Circuit:
        if not path:
            raise ValueError("circuit path must contain at least one mix")
        circuit_id = self._new_circuit_id()
        hops: List[HopKeys] = []
        prev = client_name
        for i, mix_id in enumerate(path):
            mix = self._resolve(mix_id)
            handshake = ClientHopHandshake(circuit_id, self._rng)
            next_hop = path[i + 1] if i + 1 < len(path) else None
            if i == len(path) - 1:
                # The last hop is the rendezvous mix; in a single-mix
                # zone it doubles as the entry (§3.3: "not necessarily
                # distinct").
                role = "rendezvous"
            elif i == 0:
                role = "entry"
            else:
                role = "middle"
            reply = mix.process_create(handshake.request(), prev_hop=prev,
                                       next_hop=next_hop, role=role)
            hops.append(handshake.finish(reply))
            prev = mix_id
        return Circuit(circuit_id=circuit_id, path=list(path),
                       keys=OnionCircuitKeys(hops))
