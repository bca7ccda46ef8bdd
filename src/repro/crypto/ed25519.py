"""Ed25519 signatures (RFC 8032), pure Python.

Herd participants hold a long-term identity key pair ``l`` "used to sign
DTLS certificates and their descriptors" (§3.2).  This module provides
the signature scheme for those identity keys: Ed25519 over
edwards25519, following RFC 8032 §5.1 (point compression, SHA-512
hashing).  Verification checks the *cofactorless* equation
``[s]B = R + [h]A`` after validating both point encodings and
``s < L``.

Every join derives keys and signs a certificate, so the curve layer is
built for that path (DESIGN.md §16): any multiple of a point that
stays is read off a precomputed table of it (:func:`_point_table`,
:func:`_table_mul`) — the base point's, :data:`_BASE_TABLE`, shared
with :func:`repro.crypto.x25519.x25519_base`, and one per long-lived
X25519 public key — and a key's public half is derived once.  Like
the rest of :mod:`repro.crypto`, this is a from-scratch implementation
intended for correctness within the reproduction, not for production
hardening (Python integers are not constant-time).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Optional

P = 2 ** 255 - 19
L = 2 ** 252 + 27742317777372353535851937790883648493
_I = pow(2, (P - 1) // 4, P)  # sqrt(-1)


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _inv(x: int) -> int:
    """``x⁻¹ mod p``, with ``0 ↦ 0`` as Fermat's ``x^(p−2)`` gives:
    ``pow(0, -1, p)`` raises, and callers rely on the 0 (the X25519
    low-order rejection, the ``Z = Y`` case of the birational map)."""
    x %= P
    return pow(x, -1, P) if x else 0


D = -121665 * _inv(121666) % P
_D2 = 2 * D % P


def _recover_x(y: int, sign: int) -> int:
    """Recover the x-coordinate from y and the sign bit (RFC 8032 §5.1.3)."""
    if y >= P:
        raise ValueError("invalid point encoding: y >= p")
    x2 = (y * y - 1) * _inv(D * y * y + 1) % P
    if x2 == 0:
        if sign:
            raise ValueError("invalid point encoding: x=0 with sign bit")
        return 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * _I % P
    if (x * x - x2) % P != 0:
        raise ValueError("invalid point encoding: not on curve")
    if (x & 1) != sign:
        x = P - x
    return x


# Points are extended homogeneous coordinates (X, Y, Z, T), x = X/Z,
# y = Y/Z, x*y = T/Z.  Only products are reduced: a sum or difference
# of reduced values feeds the next multiplication as it is.
_IDENT = (0, 1, 1, 0)


def _point_add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * t2 * _D2 % P
    d = 2 * z1 * z2 % P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_mul(s: int, p):
    """``s·p`` for a one-shot point by double-and-add; only verify's
    ``h·A`` comes here (multiples of a point that stays are read off
    its table, :func:`_table_mul`)."""
    q = _IDENT
    while s > 0:
        if s & 1:
            q = _point_add(q, p)
        p = _point_add(p, p)
        s >>= 1
    return q


def _point_equal(p, q) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def _point_compress(p) -> bytes:
    x, y, z, _ = p
    zinv = _inv(z)
    x = x * zinv % P
    y = y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _point_decompress(s: bytes):
    if len(s) != 32:
        raise ValueError("point encoding must be 32 bytes")
    val = int.from_bytes(s, "little")
    sign = val >> 255
    y = val & ((1 << 255) - 1)
    x = _recover_x(y, sign)
    return (x, y, 1, x * y % P)


_BY = 4 * _inv(5) % P
_BX = _recover_x(_BY, 0)
_B = (_BX, _BY, 1, _BX * _BY % P)


def _point_table(point):
    """The fixed-base table of ``point``: ``table[i][j-1]`` is
    ``j·16^i·point`` for ``i < 64``, ``1 ≤ j ≤ 15``, as the affine
    triple ``(y+x, y−x, 2dxy)`` a mixed addition consumes.  The 960
    points are made projective and brought to ``Z = 1`` with one
    shared inversion (Montgomery's trick); the addition law is
    complete, so a point of small order gets a table like any other."""
    points = []
    base = point
    for _ in range(64):
        q = base
        for _ in range(15):
            points.append(q)
            q = _point_add(q, base)
        base = q  # 16·base
    prefix = []
    acc = 1
    for _, _, z, _ in points:
        prefix.append(acc)
        acc = acc * z % P
    acc = _inv(acc)
    triples = []
    for (x, y, z, _), before in zip(reversed(points), reversed(prefix)):
        zinv = acc * before % P
        acc = acc * z % P
        x = x * zinv % P
        y = y * zinv % P
        triples.append(((y + x) % P, (y - x) % P, _D2 * x * y % P))
    triples.reverse()
    return tuple(tuple(triples[row:row + 15])
                 for row in range(0, len(triples), 15))


_BASE_TABLE = _point_table(_B)


def _table_mul(s: int, table):
    """``s·point`` for ``0 ≤ s < 2^256`` from the :func:`_point_table`
    of ``point``: one seven-multiplication mixed addition per non-zero
    nibble of ``s`` and no doublings."""
    x, y, z, t = _IDENT
    row = 0
    for byte in s.to_bytes(32, "little"):
        for j in (byte & 15, byte >> 4):
            if j:
                ypx, ymx, xy2d = table[row][j - 1]
                a = (y - x) * ymx % P
                b = (y + x) * ypx % P
                c = t * xy2d % P
                d = 2 * z
                e = b - a
                f = d - c
                g = d + c
                h = b + a
                x = e * f % P
                y = g * h % P
                z = f * g % P
                t = e * h % P
            row += 1
    return (x, y, z, t)


def _secret_expand(secret: bytes):
    if len(secret) != 32:
        raise ValueError("Ed25519 seed must be 32 bytes")
    h = _sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


def _public_key(secret: bytes) -> bytes:
    a, _ = _secret_expand(secret)
    return _point_compress(_table_mul(a, _BASE_TABLE))


def _sign(secret: bytes, public: bytes, msg: bytes) -> bytes:
    a, prefix = _secret_expand(secret)
    r = int.from_bytes(_sha512(prefix + msg), "little") % L
    big_r = _point_compress(_table_mul(r, _BASE_TABLE))
    h = int.from_bytes(_sha512(big_r + public + msg), "little") % L
    s = (r + h * a) % L
    return big_r + s.to_bytes(32, "little")


def _verify(public: bytes, msg: bytes, signature: bytes) -> bool:
    if len(public) != 32 or len(signature) != 64:
        return False
    try:
        a_point = _point_decompress(public)
        r_point = _point_decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    h = int.from_bytes(_sha512(signature[:32] + public + msg), "little") % L
    lhs = _table_mul(s, _BASE_TABLE)
    rhs = _point_add(r_point, _point_mul(h, a_point))
    return _point_equal(lhs, rhs)


@dataclass(frozen=True)
class VerifyKey:
    """An Ed25519 public (verification) key."""

    public_bytes: bytes

    def __post_init__(self):
        if len(self.public_bytes) != 32:
            raise ValueError("Ed25519 public key must be 32 bytes")

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is valid for ``message``."""
        return _verify(self.public_bytes, message, signature)


@dataclass(frozen=True)
class SigningKey:
    """An Ed25519 private (signing) key derived from a 32-byte seed."""

    seed: bytes
    #: The public half, derived on the first read of
    #: :attr:`verify_key` and kept (not part of equality or hash).
    _verify_key: Optional[VerifyKey] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("Ed25519 seed must be 32 bytes")

    @classmethod
    def generate(cls, rng=None) -> "SigningKey":
        """Generate a fresh key; ``rng`` (``random.Random``) makes it
        deterministic for simulations."""
        if rng is None:
            material = os.urandom(32)
        else:
            material = rng.getrandbits(256).to_bytes(32, "little")
        return cls(material)

    @property
    def verify_key(self) -> VerifyKey:
        key = self._verify_key
        if key is None:
            key = VerifyKey(_public_key(self.seed))
            object.__setattr__(self, "_verify_key", key)
        return key

    def sign(self, message: bytes) -> bytes:
        """Produce a 64-byte detached signature over ``message``."""
        return _sign(self.seed, self.verify_key.public_bytes, message)
