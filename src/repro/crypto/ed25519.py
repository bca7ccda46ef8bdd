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
# y = Y/Z, x*y = T/Z.  In `_point_add` only products are reduced: a sum
# or difference of reduced values feeds the next multiplication as it
# is.  `_table_mul`, on the join's path, folds its products instead.
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


#: The window of the base point's table (built at import) and of the
#: one a long-lived X25519 public key builds on its first exchange:
#: 37 × 64 and 52 × 16 entries (DESIGN.md §16).
_BASE_WINDOW = 7
_KEY_WINDOW = 5

#: The low half of a fold, ``v ↦ (v & _M) + 19·(v >> 255)``, which
#: keeps ``v mod p`` because ``2^255 ≡ 19``.
_M = (1 << 255) - 1


def _affine_triples(points) -> tuple:
    """``points`` as the affine triples ``(y+x, y−x, 2dxy)`` a mixed
    addition consumes, brought to ``Z = 1`` with one shared inversion
    (Montgomery's trick)."""
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
    return tuple(triples)


def _point_table(point, window: int = _KEY_WINDOW):
    """The signed fixed-base table of ``point``: ``table[i][j-1]`` is
    ``j·2^(w·i)·point`` for ``i ≤ 256 // w``, ``1 ≤ j ≤ 2^(w−1)``, as
    an affine triple; ``−j·2^(w·i)·point`` is the same entry with
    ``y+x`` and ``y−x`` swapped and ``2dxy`` negated.  A row is made
    affine as soon as it is built, so no more than one row is ever
    held projective.  The addition law is complete, so a point of
    small order gets a table like any other."""
    rows = []
    base = point
    for _ in range(256 // window + 1):
        row = [base]
        for _ in range((1 << (window - 1)) - 1):
            row.append(_point_add(row[-1], base))
        base = _point_add(row[-1], row[-1])  # 2^w·base
        rows.append(_affine_triples(row))
    return tuple(rows)


_BASE_TABLE = _point_table(_B, _BASE_WINDOW)


def _table_mul(s: int, table):
    """``s·point`` for ``0 ≤ s < 2^256`` from a :func:`_point_table`
    of ``point``, of either window: ``s`` recoded into signed digits
    in ``(−2^(w−1), 2^(w−1)]``, one seven-multiplication mixed
    addition per non-zero digit and no doublings.

    Products are folded twice, not reduced: a coordinate out of here
    is congruent mod p, below ``2^256`` in magnitude and possibly
    negative, and whoever reads it reduces (DESIGN.md §16)."""
    if s < 0 or s >> 256:
        raise OverflowError("scalar must be in [0, 2^256)")
    m = _M
    half = len(table[0])
    window = half.bit_length()
    full = half << 1
    x, y, z, t = _IDENT
    carry = 0
    for row in table:
        j = (s & (full - 1)) + carry
        s >>= window
        carry = j > half
        if carry:
            j -= full
        if j > 0:
            ypx, ymx, xy2d = row[j - 1]
        elif j:
            ymx, ypx, xy2d = row[-j - 1]
            xy2d = -xy2d
        else:
            continue
        a = (y - x) * ymx
        a = (a & m) + 19 * (a >> 255)
        a = (a & m) + 19 * (a >> 255)
        b = (y + x) * ypx
        b = (b & m) + 19 * (b >> 255)
        b = (b & m) + 19 * (b >> 255)
        c = t * xy2d
        c = (c & m) + 19 * (c >> 255)
        c = (c & m) + 19 * (c >> 255)
        d = 2 * z
        e = b - a
        f = d - c
        g = d + c
        h = b + a
        x = e * f
        x = (x & m) + 19 * (x >> 255)
        x = (x & m) + 19 * (x >> 255)
        y = g * h
        y = (y & m) + 19 * (y >> 255)
        y = (y & m) + 19 * (y >> 255)
        z = f * g
        z = (z & m) + 19 * (z >> 255)
        z = (z & m) + 19 * (z >> 255)
        t = e * h
        t = (t & m) + 19 * (t >> 255)
        t = (t & m) + 19 * (t >> 255)
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
