"""X25519 Diffie-Hellman key exchange (RFC 7748), pure Python.

Herd negotiates symmetric, ephemeral session keys using curve25519
(§3.2: "the implementation relies on the OpenSSL and curve25519
libraries").  :func:`x25519` is the Montgomery ladder of RFC 7748 §5
with scalar clamping, u-coordinate masking and the §6.1 all-zero
check; it is the one variable-base multiplication a join cannot avoid
(client side and mix side), so its loop carries no call and no
reduction the next multiplication makes anyway.  :func:`x25519_base`
does not run the ladder: a public key is a multiple of the base point,
which :mod:`repro.crypto.ed25519` reads off its fixed-base table, and
the birational map ``u = (1 + y) / (1 − y)`` carries the result over
(DESIGN.md §16).  A key's public half is derived once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.ed25519 import P, _base_mul, _inv

A24 = 121665


def _clamp(scalar_bytes: bytes) -> int:
    """Clamp a 32-byte scalar per RFC 7748 §5 (decodeScalar25519)."""
    if len(scalar_bytes) != 32:
        raise ValueError("X25519 scalar must be exactly 32 bytes")
    b = bytearray(scalar_bytes)
    b[0] &= 248
    b[31] &= 127
    b[31] |= 64
    return int.from_bytes(bytes(b), "little")


def _decode_u(u_bytes: bytes) -> int:
    """Decode a 32-byte u-coordinate, masking the top bit per RFC 7748."""
    if len(u_bytes) != 32:
        raise ValueError("X25519 u-coordinate must be exactly 32 bytes")
    b = bytearray(u_bytes)
    b[31] &= 127
    return int.from_bytes(bytes(b), "little") % P


def _encode_u(u: int) -> bytes:
    return (u % P).to_bytes(32, "little")


def _ladder(k: int, u: int) -> int:
    """The Montgomery ladder from RFC 7748 §5.

    The conditional swaps are the RFC's branchless mask arithmetic,
    written inline; sums and differences are left unreduced (a product
    of two values below ``2p`` in magnitude is reduced by the ``% P``
    that follows it).  ``z2 = 0`` at the end — a low-order ``u`` —
    yields 0 through :func:`~repro.crypto.ed25519._inv`, which
    :func:`x25519` rejects."""
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        mask = -(swap ^ k_t)
        swap = k_t
        dummy = mask & (x2 ^ x3)
        x2 ^= dummy
        x3 ^= dummy
        dummy = mask & (z2 ^ z3)
        z2 ^= dummy
        z3 ^= dummy

        a = x2 + z2
        aa = a * a % P
        b = x2 - z2
        bb = b * b % P
        e = aa - bb
        da = (x3 - z3) * a % P
        cb = (x3 + z3) * b % P
        c = da + cb
        d = da - cb
        x3 = c * c % P
        z3 = d * d % P * x1 % P
        x2 = aa * bb % P
        z2 = e * (aa + A24 * e) % P

    mask = -swap
    x2 ^= mask & (x2 ^ x3)
    z2 ^= mask & (z2 ^ z3)
    return x2 * _inv(z2) % P


def x25519(scalar_bytes: bytes, u_bytes: bytes) -> bytes:
    """Compute X25519(k, u): scalar multiplication on Curve25519.

    Raises :class:`ValueError` if the result is the all-zero value,
    which indicates a low-order input point (RFC 7748 §6.1 check).
    """
    k = _clamp(scalar_bytes)
    u = _decode_u(u_bytes)
    result = _ladder(k, u)
    out = _encode_u(result)
    if out == b"\x00" * 32:
        raise ValueError("X25519 produced the all-zero shared secret "
                         "(low-order public key)")
    return out


def x25519_base(scalar_bytes: bytes) -> bytes:
    """Compute the public key for a private scalar (u = 9).

    ``k·B`` on edwards25519 from the fixed-base table, mapped to the
    Montgomery u-coordinate ``(Z + Y) / (Z − Y)``; ``Z = Y`` (the
    neutral element) gives u = 0, as the ladder does."""
    _, y, z, _ = _base_mul(_clamp(scalar_bytes))
    return _encode_u((z + y) * _inv(z - y))


@dataclass(frozen=True)
class X25519PrivateKey:
    """An X25519 private key with its derived public key.

    Use :meth:`generate` for a fresh random key, or construct from
    32 bytes of secret material for deterministic tests.
    """

    private_bytes: bytes
    #: The public half, derived on the first read of
    #: :attr:`public_bytes` and kept (not part of equality or hash).
    _public_bytes: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.private_bytes) != 32:
            raise ValueError("X25519 private key must be 32 bytes")

    @classmethod
    def generate(cls, rng=None) -> "X25519PrivateKey":
        """Generate a fresh key; ``rng`` is an optional ``random.Random``
        used for reproducible simulations (defaults to ``os.urandom``)."""
        if rng is None:
            material = os.urandom(32)
        else:
            material = rng.getrandbits(256).to_bytes(32, "little")
        return cls(material)

    @property
    def public_bytes(self) -> bytes:
        public = self._public_bytes
        if public is None:
            public = x25519_base(self.private_bytes)
            object.__setattr__(self, "_public_bytes", public)
        return public

    def exchange(self, peer_public_bytes: bytes) -> bytes:
        """Perform the Diffie-Hellman exchange with a peer public key."""
        return x25519(self.private_bytes, peer_public_bytes)
