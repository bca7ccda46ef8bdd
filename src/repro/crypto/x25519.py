"""X25519 Diffie-Hellman key exchange (RFC 7748), pure Python.

Herd negotiates symmetric, ephemeral session keys using curve25519
(§3.2: "the implementation relies on the OpenSSL and curve25519
libraries").  :func:`x25519` is the Montgomery ladder of RFC 7748 §5
with scalar clamping, u-coordinate masking and the §6.1 all-zero
check.  Against a one-shot peer it runs the ladder — the one
variable-base multiplication a join cannot avoid (the mix side: every
client's ephemeral is new), so its loop carries no call and folds its
products instead of reducing them.  A point that stays
needs no ladder: its multiples are read off a fixed-base table of its
edwards25519 image (:mod:`repro.crypto.ed25519`) and the birational
map ``u = (1 + y) / (1 − y)`` carries the result over (DESIGN.md §16).
:func:`x25519_base` does that with the base point's table, and a
long-lived public key — a mix's, which every joining client exchanges
with — is an :class:`X25519PublicKey` that builds its own on the first
exchange and keeps it.  A key's public half is derived once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.crypto.ed25519 import (
    P,
    _BASE_TABLE,
    _M,
    _inv,
    _point_table,
    _recover_x,
    _table_mul,
)

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
    written inline (exact on negative ints too).  Nothing in the loop
    is reduced: each product is folded twice,
    ``v ↦ (v & (2^255 − 1)) + 19·(v >> 255)``, which keeps it below
    ``2^256`` in magnitude, and sums and differences are left as they
    are (DESIGN.md §16).  ``z2 ≡ 0`` at the end — a low-order ``u`` —
    yields 0 through :func:`~repro.crypto.ed25519._inv`, which
    :func:`x25519` rejects."""
    m = _M
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
        aa = a * a
        aa = (aa & m) + 19 * (aa >> 255)
        aa = (aa & m) + 19 * (aa >> 255)
        b = x2 - z2
        bb = b * b
        bb = (bb & m) + 19 * (bb >> 255)
        bb = (bb & m) + 19 * (bb >> 255)
        e = aa - bb
        da = (x3 - z3) * a
        da = (da & m) + 19 * (da >> 255)
        da = (da & m) + 19 * (da >> 255)
        cb = (x3 + z3) * b
        cb = (cb & m) + 19 * (cb >> 255)
        cb = (cb & m) + 19 * (cb >> 255)
        c = da + cb
        d = da - cb
        x3 = c * c
        x3 = (x3 & m) + 19 * (x3 >> 255)
        x3 = (x3 & m) + 19 * (x3 >> 255)
        z3 = d * d
        z3 = (z3 & m) + 19 * (z3 >> 255)
        z3 = (z3 & m) + 19 * (z3 >> 255)
        z3 *= x1
        z3 = (z3 & m) + 19 * (z3 >> 255)
        z3 = (z3 & m) + 19 * (z3 >> 255)
        x2 = aa * bb
        x2 = (x2 & m) + 19 * (x2 >> 255)
        x2 = (x2 & m) + 19 * (x2 >> 255)
        z2 = e * (aa + A24 * e)
        z2 = (z2 & m) + 19 * (z2 >> 255)
        z2 = (z2 & m) + 19 * (z2 >> 255)

    mask = -swap
    x2 ^= mask & (x2 ^ x3)
    z2 ^= mask & (z2 ^ z3)
    return x2 * _inv(z2) % P


def _edwards_table(u: int) -> tuple:
    """The fixed-base table of the edwards25519 point over ``u``:
    ``y = (u − 1) / (u + 1)`` and either ``x`` — ``(x, y)`` and
    ``(−x, y)`` are negatives, so their multiples share ``y`` and map
    back to the same ``u``.  Empty when ``u`` has no Edwards image
    (``u = −1``, or a point of the twist)."""
    if (u + 1) % P == 0:
        return ()
    y = (u - 1) * _inv(u + 1) % P
    try:
        x = _recover_x(y, 0)
    except ValueError:
        return ()
    return _point_table((x, y, 1, x * y % P))


def _table_u(k: int, table: tuple) -> int:
    """The Montgomery u-coordinate ``(Z + Y) / (Z − Y)`` of ``k·point``
    read off ``point``'s Edwards table; ``Z = Y`` (the neutral
    element) gives u = 0, as the ladder does."""
    _, y, z, _ = _table_mul(k, table)
    return (z + y) * _inv(z - y) % P


def x25519(scalar_bytes: bytes, u_bytes: bytes, table: tuple = ()) -> bytes:
    """Compute X25519(k, u): scalar multiplication on Curve25519.

    ``table``, when the peer is an :class:`X25519PublicKey`, is its
    :attr:`~X25519PublicKey.table`, which stands in for the ladder;
    an empty one (a one-shot peer, a ``u`` without an Edwards image)
    runs it.  Raises :class:`ValueError` if the result is the all-zero
    value, which indicates a low-order input point (RFC 7748 §6.1
    check).
    """
    k = _clamp(scalar_bytes)
    u = _decode_u(u_bytes)
    result = _table_u(k, table) if table else _ladder(k, u)
    out = _encode_u(result)
    if out == b"\x00" * 32:
        raise ValueError("X25519 produced the all-zero shared secret "
                         "(low-order public key)")
    return out


def x25519_base(scalar_bytes: bytes) -> bytes:
    """Compute the public key for a private scalar (u = 9).

    ``k·B`` on edwards25519 from the base point's table, mapped to
    the Montgomery u-coordinate."""
    return _encode_u(_table_u(_clamp(scalar_bytes), _BASE_TABLE))


@dataclass(frozen=True)
class X25519PublicKey:
    """The public half of a long-lived X25519 key.

    Everyone who exchanges with it multiplies the same point, so it
    carries that point's fixed-base table: built on the first exchange
    (≈8–11 ms, ≈210 KB — eight exchanges pay for it) and kept on the
    instance, like every derived half (DESIGN.md §16).
    """

    public_bytes: bytes
    #: ``None`` until the first read of :attr:`table` (not part of
    #: equality or hash).
    _table: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.public_bytes) != 32:
            raise ValueError("X25519 public key must be 32 bytes")

    @property
    def table(self) -> tuple:
        """The table :func:`x25519` takes; empty if this ``u`` has no
        Edwards image and every exchange runs the ladder."""
        table = self._table
        if table is None:
            table = _edwards_table(_decode_u(self.public_bytes))
            object.__setattr__(self, "_table", table)
        return table


@dataclass(frozen=True)
class X25519PrivateKey:
    """An X25519 private key with its derived public key.

    Use :meth:`generate` for a fresh random key, or construct from
    32 bytes of secret material for deterministic tests.
    """

    private_bytes: bytes
    #: The public half, derived on the first read of
    #: :attr:`public_key` and kept (not part of equality or hash).
    _public_key: Optional[X25519PublicKey] = field(
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
    def public_key(self) -> X25519PublicKey:
        public = self._public_key
        if public is None:
            public = X25519PublicKey(x25519_base(self.private_bytes))
            object.__setattr__(self, "_public_key", public)
        return public

    @property
    def public_bytes(self) -> bytes:
        return self.public_key.public_bytes

    def exchange(self, peer: Union[bytes, X25519PublicKey]) -> bytes:
        """Perform the Diffie-Hellman exchange with a peer public key:
        the 32 bytes of a one-shot peer, or the
        :class:`X25519PublicKey` of a long-lived one."""
        if isinstance(peer, X25519PublicKey):
            return x25519(self.private_bytes, peer.public_bytes, peer.table)
        return x25519(self.private_bytes, peer)
