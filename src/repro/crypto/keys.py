"""Herd participant key material (§3.2).

"Mixes, SPs, and clients maintain a long-term identity key pair *l* used
to sign DTLS certificates and their descriptors, and a short-term key
pair *s* used to set up circuits and negotiate symmetric, ephemeral
session keys *e*."

* :class:`IdentityKeyPair` — the long-term Ed25519 pair ``l``.
* :class:`ShortTermKeyPair` — the medium-term X25519 pair ``s``.
* :class:`SessionKey` — a symmetric ephemeral key ``e``, as used on
  DTLS links and circuit layers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

from repro.crypto.ed25519 import SigningKey, VerifyKey
from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey


@dataclass(frozen=True)
class IdentityKeyPair:
    """Long-term identity key pair ``l`` (Ed25519)."""

    signing_key: SigningKey

    @classmethod
    def generate(cls, rng=None) -> "IdentityKeyPair":
        return cls(SigningKey.generate(rng))

    @property
    def verify_key(self) -> VerifyKey:
        return self.signing_key.verify_key

    @property
    def public_bytes(self) -> bytes:
        return self.verify_key.public_bytes

    def sign(self, message: bytes) -> bytes:
        return self.signing_key.sign(message)


@dataclass(frozen=True)
class ShortTermKeyPair:
    """Short-term circuit-setup key pair ``s`` (X25519)."""

    dh_key: X25519PrivateKey

    @classmethod
    def generate(cls, rng=None) -> "ShortTermKeyPair":
        return cls(X25519PrivateKey.generate(rng))

    @property
    def public_key(self) -> X25519PublicKey:
        """The public half as the object peers exchange with (it keeps
        the fixed-base table they share)."""
        return self.dh_key.public_key

    @property
    def public_bytes(self) -> bytes:
        return self.dh_key.public_bytes

    def exchange(self, peer: Union[bytes, X25519PublicKey]) -> bytes:
        return self.dh_key.exchange(peer)


@dataclass
class SessionKey:
    """A symmetric ephemeral session key ``e``.

    Nonces are not the key's: each use derives its own from the
    nonce domain it belongs to (DESIGN.md §1.3), e.g. the upstream
    packets' from :func:`repro.core.network_coding.upstream_nonces`.
    """

    key: bytes

    def __post_init__(self):
        if len(self.key) != 32:
            raise ValueError("session key must be 32 bytes")

    @classmethod
    def generate(cls, rng=None) -> "SessionKey":
        if rng is None:
            return cls(os.urandom(32))
        return cls(rng.getrandbits(256).to_bytes(32, "little"))
