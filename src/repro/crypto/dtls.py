"""A DTLS-like authenticated datagram channel (hop-by-hop encryption).

Herd §3.2: "Mixes maintain a Datagram TLS (DTLS) link to all other
mixes, SPs maintain a DTLS link to the mix they are attached to, and
clients maintain either one such link to a mix, or a small number of
links to SPs. All Herd traffic is transferred over these links. [...]
Mixes and users communicate via DTLS links encrypted with ephemeral key
*e*, sealing the traffic with perfect forward secrecy."

This module provides a minimal but complete handshake and record layer
with the properties Herd needs:

* mutual authentication via signed ephemeral keys (SIGMA-style: each
  side signs the handshake transcript with its long-term identity key),
* perfect forward secrecy (fresh X25519 ephemerals per link),
* a record layer using ChaCha20-Poly1305 with per-direction keys and
  explicit 64-bit sequence numbers (datagrams may arrive out of order,
  so the sequence number travels in the record header — the same place
  Herd carries circuit IDs "outside of layered encryption"),
* replay rejection via a sliding window.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.chacha20 import ChaCha20Poly1305
from repro.crypto.kdf import derive_keys
from repro.crypto.keys import IdentityKeyPair
from repro.crypto.x25519 import X25519PrivateKey
from repro.crypto.ed25519 import VerifyKey


class HandshakeError(Exception):
    """Raised when the DTLS-like handshake fails authentication."""


@dataclass(frozen=True)
class HandshakeMessage:
    """A signed ephemeral public key plus the sender's identity key."""

    ephemeral_public: bytes
    identity_public: bytes
    signature: bytes


class _HandshakeState:
    """One endpoint's half of the handshake."""

    def __init__(self, identity: IdentityKeyPair, is_initiator: bool,
                 rng=None):
        self._identity = identity
        self._ephemeral = X25519PrivateKey.generate(rng)
        self._is_initiator = is_initiator

    def hello(self) -> HandshakeMessage:
        role = b"init" if self._is_initiator else b"resp"
        transcript = b"herd-dtls-hello" + role + self._ephemeral.public_bytes
        return HandshakeMessage(
            ephemeral_public=self._ephemeral.public_bytes,
            identity_public=self._identity.public_bytes,
            signature=self._identity.sign(transcript),
        )

    def finish(self, peer: HandshakeMessage,
               expected_identity: bytes = None):
        peer_role = b"resp" if self._is_initiator else b"init"
        transcript = b"herd-dtls-hello" + peer_role + peer.ephemeral_public
        if not VerifyKey(peer.identity_public).verify(transcript,
                                                      peer.signature):
            raise HandshakeError("peer handshake signature invalid")
        if expected_identity is not None and \
                peer.identity_public != expected_identity:
            raise HandshakeError("peer identity key does not match "
                                 "the expected certificate")
        shared = self._ephemeral.exchange(peer.ephemeral_public)
        if self._is_initiator:
            context = self._ephemeral.public_bytes + peer.ephemeral_public
        else:
            context = peer.ephemeral_public + self._ephemeral.public_bytes
        keys = derive_keys(shared, ("client_write", "server_write"),
                           context=context)
        return keys


_HEADER = struct.Struct("<Q")  # explicit 64-bit sequence number
_REPLAY_WINDOW = 1024


class _ReceiveWindow:
    """Sliding anti-replay window for datagram sequence numbers: the
    bitmap of RFC 6347 §4.1.2.6, one int whose bit ``i`` says that
    sequence number ``highest - i`` has been seen."""

    def __init__(self, size: int = _REPLAY_WINDOW):
        self._size = size
        self._highest = -1
        self._seen = 0

    def check_and_update(self, seq: int) -> bool:
        """Return True if ``seq`` is fresh; record it."""
        age = self._highest - seq
        if age < 0:
            # The window's new right edge.  A jump past the whole
            # window forgets it, so the shift is never by more than
            # the window (the jump itself is the peer's choice).
            if -age >= self._size:
                self._seen = 1
            else:
                self._seen = ((self._seen << -age) | 1) \
                    & ((1 << self._size) - 1)
            self._highest = seq
            return True
        if age >= self._size or self._seen >> age & 1:
            return False
        self._seen |= 1 << age
        return True


class DTLSLink:
    """One endpoint of an established DTLS-like link.

    Construct a connected pair with :func:`establish_link`, or drive
    the handshake manually with :class:`_HandshakeState`.  ``seal``
    produces a datagram (header || ciphertext || tag); ``open`` verifies
    and decrypts, raising :class:`ValueError` on forgery and returning
    ``None`` for replayed datagrams.
    """

    def __init__(self, send_key: bytes, recv_key: bytes):
        self._send_aead = ChaCha20Poly1305(send_key)
        self._recv_aead = ChaCha20Poly1305(recv_key)
        self._send_seq = 0
        self._window = _ReceiveWindow()
        self.bytes_sent = 0
        self.bytes_received = 0

    @staticmethod
    def _nonce(seq: int) -> bytes:
        return b"\x00" * 4 + struct.pack("<Q", seq)

    def seal(self, plaintext: bytes) -> bytes:
        header = _HEADER.pack(self._send_seq)
        body = self._send_aead.encrypt(self._nonce(self._send_seq),
                                       plaintext, aad=header)
        self._send_seq += 1
        datagram = header + body
        self.bytes_sent += len(datagram)
        return datagram

    def open(self, datagram: bytes):
        if len(datagram) < _HEADER.size:
            raise ValueError("datagram too short")
        header, body = datagram[:_HEADER.size], datagram[_HEADER.size:]
        (seq,) = _HEADER.unpack(header)
        plaintext = self._recv_aead.decrypt(self._nonce(seq), body,
                                            aad=header)
        if not self._window.check_and_update(seq):
            return None
        self.bytes_received += len(datagram)
        return plaintext

    @property
    def overhead(self) -> int:
        """Per-datagram byte overhead added by the record layer."""
        return _HEADER.size + ChaCha20Poly1305.TAG_LEN


def establish_link(initiator_identity: IdentityKeyPair,
                   responder_identity: IdentityKeyPair,
                   rng=None):
    """Run the full handshake and return (initiator_link, responder_link).

    The two returned :class:`DTLSLink` endpoints share directional keys:
    whatever one seals, the other opens.
    """
    init = _HandshakeState(initiator_identity, is_initiator=True, rng=rng)
    resp = _HandshakeState(responder_identity, is_initiator=False, rng=rng)
    init_hello = init.hello()
    resp_hello = resp.hello()
    init_keys = init.finish(resp_hello,
                            responder_identity.public_bytes)
    resp_keys = resp.finish(init_hello,
                            initiator_identity.public_bytes)
    if init_keys != resp_keys:
        raise HandshakeError("key schedule mismatch")
    initiator_link = DTLSLink(send_key=init_keys["client_write"],
                              recv_key=init_keys["server_write"])
    responder_link = DTLSLink(send_key=resp_keys["server_write"],
                              recv_key=resp_keys["client_write"])
    return initiator_link, responder_link
