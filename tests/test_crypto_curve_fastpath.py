"""The curve fast path against three oracles (DESIGN.md §16).

``repro.crypto.ed25519`` / ``x25519`` multiply through fixed-base
tables — the base point's, and one on every long-lived X25519 public
key — and a tightened ladder.  What they replaced —
textbook double-and-add and the RFC 7748 §5 ladder as printed — lives
on here as the reference; golden pins taken at the commit before the
rewrite hold the join's bytes in place; and ``cryptography``, where
installed, is a third opinion.
"""

import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import ed25519 as ed
from repro.crypto.ed25519 import L, P, SigningKey, VerifyKey
from repro.crypto.keys import IdentityKeyPair, ShortTermKeyPair
from repro.crypto.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
    x25519,
    x25519_base,
)

from conftest import build_testbed


# -- the reference: the bodies this PR deleted from src/ ----------------------


def ref_add(p, q):
    (x1, y1, z1, t1), (x2, y2, z2, t2) = p, q
    a, b = (y1 - x1) * (y2 - x2) % P, (y1 + x1) * (y2 + x2) % P
    c, d = 2 * t1 * t2 * ed.D % P, 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def ref_mul(s, p):
    q = (0, 1, 1, 0)
    while s > 0:
        if s & 1:
            q = ref_add(q, p)
        p = ref_add(p, p)
        s >>= 1
    return q


def ref_ladder(k, u):
    x1, x2, z2, x3, z3, swap = u, 1, 0, u, 1, 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        if swap ^ k_t:
            x2, x3, z2, z3 = x3, x2, z3, z2
        swap = k_t
        a, b = (x2 + z2) % P, (x2 - z2) % P
        aa, bb = a * a % P, b * b % P
        e = (aa - bb) % P
        da, cb = (x3 - z3) * a % P, (x3 + z3) * b % P
        x3, z3 = (da + cb) ** 2 % P, x1 * (da - cb) ** 2 % P
        x2, z2 = aa * bb % P, e * (aa + 121665 * e) % P
    if swap:
        x2, z2 = x3, z3
    return x2 * pow(z2, P - 2, P) % P


def base_mul(s):
    return ed._table_mul(s, ed._BASE_TABLE)


def affine(p):
    x, y, z, t = p
    zinv = pow(z, P - 2, P)
    assert (x * y - t * z) % P == 0  # T is consistent: x·y = T/Z
    return x * zinv % P, y * zinv % P


def entry(point):
    """The triple a table holds for ``point``."""
    x, y = affine(point)
    return ((y + x) % P, (y - x) % P, 2 * ed.D * x * y % P)


def negated(triple):
    """A table entry as a negative digit reads it: ``y+x`` and
    ``y−x`` swapped, ``2dxy`` negated."""
    ypx, ymx, xy2d = triple
    return (ymx, ypx, -xy2d % P)


def ref_x25519(scalar: bytes, u: bytes) -> int:
    k = int.from_bytes(scalar, "little")
    k = (k & ((1 << 254) - 8)) | (1 << 254)
    return ref_ladder(k, (int.from_bytes(u, "little") & ((1 << 255) - 1)) % P)


# -- edge inputs --------------------------------------------------------------

EDGE_SCALARS = [
    0, 1, 2, 15, 16, 17, L - 1, L, L + 1, 2 ** 252, 2 ** 255 - 1,
    2 ** 256 - 1,
    # zero windows: the table multiply skips them
    0xF0 << 248, 0x0F0F0F0F << 100, 1 << 128, (1 << 252) | 1,
    int("f00f" * 16, 16), int("0ff0" * 16, 16),
]

#: The seven small-order u-coordinates (RFC 7748 §7 / the curve25519
#: paper's list as it reduces mod 2^255).
SMALL_ORDER_U = [
    0, 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    P - 1, P, P + 1,
]

#: Edwards points outside the prime-order subgroup: the neutral
#: element, order 2, and the two of order 4.
SMALL_ORDER_POINTS = [(0, 1, 1, 0), (0, P - 1, 1, 0),
                      (ed._I, 0, 1, 0), (P - ed._I, 0, 1, 0)]

scalars = st.integers(0, 2 ** 256 - 1)
byte32 = st.binary(min_size=32, max_size=32)


# -- (a) differential against the reference -----------------------------------


class TestFixedBaseTable:
    def test_layout(self):
        """Signed radix-2^7: 37 rows of ``j·128^i·B``, ``1 ≤ j ≤ 64``;
        the entry read as a negative digit is ``−j·128^i·B``."""
        table = ed._BASE_TABLE
        assert isinstance(table, tuple) and len(table) == 37
        assert all(isinstance(row, tuple) and len(row) == 64
                   for row in table)
        for i in (0, 1, 18, 36):
            for j in (1, 2, 33, 63, 64):
                m = j * 128 ** i
                assert table[i][j - 1] == entry(ref_mul(m, ed._B))
                assert negated(table[i][j - 1]) \
                    == entry(ref_mul(-m % L, ed._B))

    @pytest.mark.parametrize("s", EDGE_SCALARS)
    def test_edge_scalars(self, s):
        assert affine(base_mul(s)) == affine(ref_mul(s, ed._B))

    @settings(max_examples=60, deadline=None)
    @given(s=scalars)
    def test_matches_double_and_add(self, s):
        assert affine(base_mul(s)) == affine(ref_mul(s, ed._B))

    def test_scalar_out_of_range_is_an_error(self):
        with pytest.raises(OverflowError):
            base_mul(2 ** 256)
        with pytest.raises(OverflowError):
            base_mul(-1)


class TestAnyPointTable:
    """The builder and the multiplication take the point: a table of
    ``k·B``, of a projective representative, of a small-order point."""

    @settings(max_examples=15, deadline=None)
    @given(s=scalars, k=st.integers(1, L - 1), z=st.integers(1, P - 1))
    def test_matches_double_and_add(self, s, k, z):
        x, y = affine(ref_mul(k, ed._B))
        point = (x * z % P, y * z % P, z, x * y * z % P)
        table = ed._point_table(point)  # a peer key's: radix 2^5
        assert len(table) == 52 and {len(row) for row in table} == {16}
        for i, j in ((0, 1), (1, 16), (25, 9), (51, 8), (51, 16)):
            m = j * 32 ** i
            assert table[i][j - 1] == entry(ref_mul(m, point))
            assert negated(table[i][j - 1]) == entry(ref_mul(-m % L, point))
        assert affine(ed._table_mul(s, table)) == affine(ref_mul(s, point))

    @pytest.mark.parametrize("point", SMALL_ORDER_POINTS)
    def test_small_order_points(self, point):
        table = ed._point_table(point)
        for s in (0, 1, 2, 3, 4, 7, 8, L, 2 ** 256 - 1):
            assert affine(ed._table_mul(s, table)) \
                == affine(ref_mul(s, point))


def window_scalars(window):
    """Scalars at the edges of the signed recoding for ``window``: every
    unsigned window at ``2^(w−1)`` (the largest positive digit), at
    ``2^(w−1) + 1`` (a negative digit and a carry into every next
    window), at ``2^(w−1) − 1`` behind a carry (``2^(w−1)`` again),
    every signed digit ``±2^(w−1)``, alternating, and the ends of the
    range."""
    half, rows = 1 << (window - 1), 256 // window + 1

    def from_windows(values):
        return sum(v << (window * i) for i, v in enumerate(values)) \
            % 2 ** 256

    return [
        from_windows([half] * rows),
        from_windows([half + 1] * rows),
        from_windows([half + 1] + [half - 1] * rows),
        from_windows([half] * rows) - 1,
        from_windows([-half] * rows),
        from_windows([half, -half] * rows),
        from_windows([-half, half + 1] * rows),
        from_windows([2 * half - 1, 0] * rows),
        0, 1, L, 2 ** 255 - 1, 2 ** 256 - 1,
    ]


_TABLES = {}


def table_of(point, window):
    """``_point_table(point, window)``, built once for this module."""
    key = (point, window)
    if key not in _TABLES:
        _TABLES[key] = ed._point_table(point, window)
    return _TABLES[key]


def point_of(s):
    """``s·B`` with ``Z = 1``."""
    x, y = affine(ref_mul(s, ed._B))
    return (x, y, 1, x * y % P)


#: B, another point of the subgroup (a peer key's shape) and the
#: small-order points, each on both windows.
RECODING_POINTS = [ed._B, point_of(0xC0FFEE)] + SMALL_ORDER_POINTS


class TestSignedRecoding:
    """``_table_mul`` recodes a scalar into signed digits for either
    window; the carry chains and the ends of the range must give what
    double-and-add gives."""

    def test_base_table_is_the_window_7_table(self):
        assert ed._BASE_TABLE == table_of(ed._B, ed._BASE_WINDOW)
        assert (ed._BASE_WINDOW, ed._KEY_WINDOW) == (7, 5)

    @pytest.mark.parametrize("window", [ed._BASE_WINDOW, ed._KEY_WINDOW])
    @pytest.mark.parametrize("point", RECODING_POINTS)
    def test_edge_scalars(self, window, point):
        table = table_of(point, window)
        for s in window_scalars(window):
            assert 0 <= s < 2 ** 256
            assert affine(ed._table_mul(s, table)) \
                == affine(ref_mul(s, point)), hex(s)

    @pytest.mark.parametrize("window", [ed._BASE_WINDOW, ed._KEY_WINDOW])
    def test_scalar_out_of_range_is_an_error(self, window):
        table = table_of(ed._B, window)
        for s in (-1, -(2 ** 256), 2 ** 256, 2 ** 300):
            with pytest.raises(OverflowError):
                ed._table_mul(s, table)


class TestFoldBounds:
    """The multiplication loops fold their products instead of reducing
    them: what leaves ``_table_mul`` is below ``2^256`` in magnitude
    and congruent, and ``x25519`` reduces what leaves the ladder."""

    @pytest.mark.parametrize("window", [ed._BASE_WINDOW, ed._KEY_WINDOW])
    def test_table_mul_coordinates_stay_below_2_256(self, window):
        table = table_of(ed._B, window)
        for s in window_scalars(window) + EDGE_SCALARS:
            assert all(abs(c) < 2 ** 256 for c in ed._table_mul(s, table))

    @pytest.mark.parametrize("u", [
        P - 1, P, 2 ** 255 - 1,            # u = −1; 0; 18, non-canonical
        2 ** 256 - 1, P | 1 << 255,        # the same, top bit masked
        P + 1, P + 9, P - 2, 9])
    @pytest.mark.parametrize("scalar", [
        b"\xff" * 32, b"\x00" * 32, b"\xfe" + b"\xff" * 31,
        b"\xff" * 31 + b"\x7f"])
    def test_x25519_edges_match_rfc_ladder(self, u, scalar):
        encoded = u.to_bytes(32, "little")
        expected = ref_x25519(scalar, encoded)
        outcomes = (exchange_outcome(lambda: x25519(scalar, encoded)),
                    exchange_outcome(lambda: X25519PrivateKey(scalar)
                                     .exchange(X25519PublicKey(encoded))))
        if expected == 0:
            assert all("all-zero" in outcome for outcome in outcomes)
        else:
            assert outcomes == (expected.to_bytes(32, "little"),) * 2


class TestVariableBase:
    """Verify's ``h·A`` stays double-and-add; what changed under it is
    ``_point_add`` (the folded ``2d``, unreduced sums)."""

    @pytest.mark.parametrize("point", SMALL_ORDER_POINTS)
    def test_small_order_points(self, point):
        for s in (0, 1, 2, 3, 4, 7, 8, L, 2 ** 256 - 1):
            assert affine(ed._point_mul(s, point)) \
                == affine(ref_mul(s, point))

    @settings(max_examples=40, deadline=None)
    @given(s=scalars, k=st.integers(1, L - 1), z=st.integers(1, P - 1))
    def test_matches_reference(self, s, k, z):
        x, y = affine(ref_mul(k, ed._B))
        # a projective representative with Z != 1
        point = (x * z % P, y * z % P, z, x * y * z % P)
        assert affine(ed._point_mul(s, point)) == affine(ref_mul(s, point))


class TestLadderAndBaseMap:
    @settings(max_examples=60, deadline=None)
    @given(scalar=byte32, u=byte32)
    @example(scalar=b"\x00" * 32, u=b"\xff" * 32)
    @example(scalar=b"\xff" * 32, u=(P - 2).to_bytes(32, "little"))
    @example(scalar=b"\xff" * 32, u=(2 ** 255 + 9).to_bytes(32, "little"))
    def test_x25519_matches_rfc_ladder(self, scalar, u):
        expected = ref_x25519(scalar, u)
        if expected == 0:
            with pytest.raises(ValueError):
                x25519(scalar, u)
        else:
            assert x25519(scalar, u) == expected.to_bytes(32, "little")

    @settings(max_examples=60, deadline=None)
    @given(scalar=byte32)
    @example(scalar=b"\x00" * 32)
    @example(scalar=b"\xff" * 32)
    def test_base_map_matches_rfc_ladder(self, scalar):
        nine = (9).to_bytes(32, "little")
        assert x25519_base(scalar) \
            == ref_x25519(scalar, nine).to_bytes(32, "little") \
            == x25519(scalar, nine)


#: RFC 7748 §5.2 (scalar, u, result) and the §6.1 Diffie-Hellman
#: vector as (Alice's private key, Bob's public key, shared secret).
#: The first u is on the curve (the table path); the second is a point
#: of the twist, which has no Edwards image (the ladder, through the
#: key object); Bob's key is a key.
RFC7748_VECTORS = [
    ("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
     "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
     "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
     True),
    ("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
     "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
     "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
     False),
    ("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
     "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
     "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742",
     True),
]


def exchange_outcome(exchange):
    """What an exchange gives: its bytes, or the text of its
    ``ValueError``."""
    try:
        return exchange()
    except ValueError as err:
        return str(err)


class TestPeerKeyTable:
    """An exchange against an :class:`X25519PublicKey` reads the peer's
    own table; it must give what the ladder gives, on every input."""

    @settings(max_examples=40, deadline=None)
    @given(scalar=byte32, peer=byte32)
    @example(scalar=b"\x00" * 32, peer=b"\xff" * 32)
    @example(scalar=b"\xff" * 32, peer=b"\x00" * 32)
    def test_matches_rfc_ladder_and_x25519(self, scalar, peer):
        public = X25519PrivateKey(peer).public_key
        assert public.table  # a public key is on the curve
        shared = X25519PrivateKey(scalar).exchange(public)
        assert shared \
            == ref_x25519(scalar, public.public_bytes).to_bytes(32, "little") \
            == x25519(scalar, public.public_bytes) \
            == X25519PrivateKey(peer).exchange(x25519_base(scalar))

    @settings(max_examples=40, deadline=None)
    @given(scalar=byte32, u=byte32)
    def test_any_u_gives_what_x25519_gives(self, scalar, u):
        """On the curve or on the twist, canonical or not."""
        key = X25519PrivateKey(scalar)
        assert exchange_outcome(lambda: key.exchange(X25519PublicKey(u))) \
            == exchange_outcome(lambda: x25519(scalar, u))

    @pytest.mark.parametrize("scalar,u,result,on_curve", RFC7748_VECTORS)
    def test_rfc7748_vectors(self, scalar, u, result, on_curve):
        scalar, u = bytes.fromhex(scalar), bytes.fromhex(u)
        public = X25519PublicKey(u)
        assert bool(public.table) is on_curve
        assert x25519(scalar, u).hex() == result
        assert X25519PrivateKey(scalar).exchange(public).hex() == result
        assert ShortTermKeyPair(X25519PrivateKey(scalar)) \
            .exchange(public).hex() == result

    @pytest.mark.parametrize("u", [2, 3, 5, P - 3, P - 1])
    def test_no_edwards_image_runs_the_ladder(self, u, monkeypatch):
        """Points of the twist and ``u = −1``: the table is empty (and
        found empty once), the ladder answers."""
        module = sys.modules["repro.crypto.x25519"]
        ladders = []
        real_ladder = module._ladder
        monkeypatch.setattr(
            module, "_ladder",
            lambda k, u: ladders.append(u) or real_ladder(k, u))
        encoded = u.to_bytes(32, "little")
        public = X25519PublicKey(encoded)
        assert public.table == () and public.table is public._table
        scalar = random.Random(u).randbytes(32)
        outcome = exchange_outcome(
            lambda: X25519PrivateKey(scalar).exchange(public))
        assert ladders == [u]
        assert outcome == exchange_outcome(lambda: x25519(scalar, encoded))

    @pytest.mark.parametrize("u", [P + 3, P + 9, 2 ** 255 - 1,
                                   2 ** 255 + 9, 2 ** 256 - 1])
    def test_non_canonical_u(self, u):
        """``u ≥ p`` and the ignored top bit: the table is that of the
        reduced ``u``, as the ladder multiplies the reduced ``u``."""
        encoded = u.to_bytes(32, "little")
        reduced = ((u & (2 ** 255 - 1)) % P).to_bytes(32, "little")
        public = X25519PublicKey(encoded)
        assert public.table == X25519PublicKey(reduced).table
        for seed in (1, 2):
            scalar = random.Random(seed).randbytes(32)
            assert exchange_outcome(
                lambda: X25519PrivateKey(scalar).exchange(public)) \
                == exchange_outcome(lambda: x25519(scalar, encoded)) \
                == exchange_outcome(lambda: x25519(scalar, reduced))

    def test_wrong_lengths_are_errors_on_both_paths(self):
        with pytest.raises(ValueError, match="32 bytes"):
            X25519PublicKey(b"\x09" * 31)
        public = X25519PrivateKey(bytes(range(32))).public_key
        for scalar in (b"", b"\x01" * 31, b"\x01" * 33):
            with pytest.raises(ValueError, match="scalar"):
                x25519(scalar, public.public_bytes, public.table)
            with pytest.raises(ValueError, match="scalar"):
                x25519(scalar, public.public_bytes)

    def test_table_is_built_once_per_key_object(self, monkeypatch):
        module = sys.modules["repro.crypto.x25519"]
        built = []
        real_table = module._point_table
        monkeypatch.setattr(
            module, "_point_table",
            lambda point: built.append(point) or real_table(point))
        rng = random.Random(31)
        short_term = ShortTermKeyPair.generate(rng)
        public = short_term.public_key
        assert public is short_term.dh_key.public_key  # handed out, kept
        assert public.public_bytes is short_term.public_bytes
        assert built == []  # nothing is built before the first exchange
        shares = [X25519PrivateKey.generate(rng).exchange(public)
                  for _ in range(3)]
        assert len(built) == 1 and len(set(shares)) == 3
        # a one-shot peer's bytes build nothing
        X25519PrivateKey.generate(rng).exchange(public.public_bytes)
        short_term.exchange(X25519PrivateKey.generate(rng).public_bytes)
        assert len(built) == 1
        # another object of the same key has its own
        X25519PrivateKey.generate(rng).exchange(
            X25519PublicKey(public.public_bytes))
        assert len(built) == 2

    def test_table_is_not_part_of_equality_hash_or_repr(self):
        encoded = X25519PrivateKey(bytes(range(32))).public_bytes
        fresh, used = X25519PublicKey(encoded), X25519PublicKey(encoded)
        X25519PrivateKey(bytes(32)).exchange(used)
        assert fresh._table is None and used._table
        assert fresh == used and hash(fresh) == hash(used)
        assert len({fresh, used}) == 1
        assert repr(fresh) == repr(used)
        assert len(repr(used)) < 200
        assert fresh != X25519PublicKey(bytes(32))


# -- degenerate inputs keep their exact behaviour -----------------------------


class TestDegenerateInputs:
    @pytest.mark.parametrize("u", SMALL_ORDER_U)
    @pytest.mark.parametrize("top_bit", [0, 1 << 255])
    def test_small_order_u_rejected(self, u, top_bit):
        """RFC 7748 §6.1: all seven low-order inputs (with the ignored
        top bit clear or set) end in z = 0, whose inverse must stay 0
        for the all-zero check to fire.  Through a key object's table
        a clamped scalar (a multiple of 8) lands on the neutral element,
        ``Z = Y``, and the same check fires; ``u = −1`` (p − 1) is the
        one of the seven without an Edwards image."""
        encoded = (u | top_bit).to_bytes(32, "little")
        public = X25519PublicKey(encoded)
        assert bool(public.table) is (u % P != P - 1)
        for seed in (1, 2, 3):
            scalar = random.Random(seed).randbytes(32)
            assert ref_x25519(scalar, encoded) == 0
            with pytest.raises(ValueError, match="all-zero"):
                x25519(scalar, encoded)
            with pytest.raises(ValueError, match="all-zero"):
                X25519PrivateKey(scalar).exchange(encoded)
            with pytest.raises(ValueError, match="all-zero"):
                ShortTermKeyPair(X25519PrivateKey(scalar)).exchange(encoded)
            with pytest.raises(ValueError, match="all-zero"):
                X25519PrivateKey(scalar).exchange(public)

    def test_inverse_of_zero_is_zero(self):
        # Fermat's x^(p-2) maps 0 to 0; pow(x, -1, p) raises on it.
        assert ed._inv(0) == ed._inv(P) == ed._inv(-P) == 0
        assert ed._inv(1) == 1
        assert ed._inv(-1) == P - 1
        assert 7 * ed._inv(7) % P == 1

    def test_compress_roundtrip(self):
        for s in (1, 2, L - 1, 0xC0FFEE):
            x, y = affine(ref_mul(s, ed._B))
            encoded = ed._point_compress(base_mul(s))
            assert encoded == (y | ((x & 1) << 255)).to_bytes(32, "little")
            assert affine(ed._point_decompress(encoded)) == (x, y)
        # Z = 0 is not a curve point; it compresses to y = 0 as with
        # the Fermat inverse, it does not raise.
        assert ed._point_compress((1, 1, 0, 0)) == b"\x00" * 32

    def test_neutral_element_maps_to_u_zero(self):
        # Z = Y in u = (Z+Y)/(Z-Y): unreachable from a clamped scalar
        # (8·L > 2^255), so drive the map's arithmetic directly.
        _, y, z, _ = base_mul(L)
        assert (z - y) % P == 0
        assert (z + y) * ed._inv(z - y) % P == 0

    @pytest.mark.parametrize("s_plus", [L, 2 * L])
    def test_signature_with_s_not_below_l_rejected(self, s_plus):
        key = SigningKey.generate(random.Random(11))
        sig = key.sign(b"m")
        s = int.from_bytes(sig[32:], "little") + s_plus
        forged = sig[:32] + s.to_bytes(32, "little")
        # the same residue mod L, so the equation itself would hold
        assert key.verify_key.verify(b"m", sig)
        assert not key.verify_key.verify(b"m", forged)

    @pytest.mark.parametrize("y", [P, P + 1, 2 ** 255 - 1])
    def test_non_canonical_y_rejected(self, y):
        encoded = y.to_bytes(32, "little")
        with pytest.raises(ValueError, match="y >= p"):
            ed._point_decompress(encoded)
        key = SigningKey.generate(random.Random(12))
        sig = key.sign(b"m")
        assert not VerifyKey(encoded).verify(b"m", sig)
        assert not key.verify_key.verify(b"m", encoded + sig[32:])

    @pytest.mark.parametrize("y", [1, P - 1])
    def test_x_zero_with_sign_bit_rejected(self, y):
        encoded = (y | (1 << 255)).to_bytes(32, "little")
        with pytest.raises(ValueError, match="x=0 with sign bit"):
            ed._point_decompress(encoded)
        key = SigningKey.generate(random.Random(13))
        sig = key.sign(b"m")
        assert not VerifyKey(encoded).verify(b"m", sig)
        assert not key.verify_key.verify(b"m", encoded + sig[32:])

    def test_off_curve_y_rejected(self):
        with pytest.raises(ValueError, match="not on curve"):
            ed._point_decompress((2).to_bytes(32, "little"))


# -- (b) golden pins, computed at the commit before the rewrite ---------------

GOLDEN_ROOT_PUBLIC = \
    "917cc3f700754b6985c05862e1fa3ce3554b8e50887963d960fa754e745369bd"
GOLDEN_DIRECTORY = {
    "identity_public":
        "d6c69d3e01c1614f86c2422440b5952b88b321020929294510ed50ead9ce0b82",
    "short_term_public":
        "1a00362ffc6a4d9e89890d5c0f10ff695e06965d95b6d227daed7fa22c9d3c3e",
    "certificate_signature":
        "f356860f90fff5bb96486cf994b658878ac82fa3795f1c52ddd20e0bcb5a05a4"
        "9d69e276bdc15931090833c28ca3bb0e43ee8068924ebbfe3460bcf49d19440e",
}
#: (identity public, short-term public, certificate signature,
#: client<->mix session key) of c0, c1, c2.
GOLDEN_CLIENTS = [
    ("a19d1089623bbf7d29f78e58573566b1a6454286d2d16cc6a5f6d2b935a10943",
     "8634c120462233e1d52d0ea68d2706bb11ea53707709b4f853c0148948526733",
     "1547558aa03bd23ae234f57cb93889cfe6a240158f449e2a8f10c61a1fab5296"
     "4ba9a92a054563c43e0e54d3c5937c36288b56be8153c8c751a7e62d5b70a108",
     "99539b07cef1ca499b4593e7b52eda53d288e257932b5494f59ba4de42ca50a2"),
    ("8613c309949cb102306f161fb4b460e68b5dcf551f57830ba2b79dcc49b1a0af",
     "c6c2b2c57f87c9d067f18521f01e4e014877c167a3c77ee37f07e5b79db95e14",
     "e973a52765f7237eb59252f2934863ddb2cbd7c548e123e5e6cfaf69f6a43910"
     "7087470de5a9f92f073fcc64bea8ffed64fe8605e31bd95e71e1f6113e07de0a",
     "373cdc89c8c2d20339a029309d7961120cac4d6fac2ff7706d24779f883cef1d"),
    ("c3c0225b098ab62d844777dd7b64e79f21bddc117db29319fcfa4aedf79a4589",
     "3d3c3d44b8a7b0368a3def11c42fee2675840dee4b76f32cf3f7484ef6da440e",
     "0ce882ca0eb5a76bd6a03a4ba0ebb324e0ca4c9a1e789ea4b45718c8c52064d7"
     "96285be0bab6c0be5de9fe586055d915091858abc828bc438e94812be5d10e0e",
     "65765548b354b1b4cb5efc341310a9fca768295d23d330f8ce95f77eee32de3c"),
]


def test_join_bytes_are_those_of_the_parent_commit():
    bed = build_testbed([("zone-EU", "dc-eu", 1)], seed=1)
    directory = bed.directories["zone-EU"]
    assert bed.root.public_key.public_bytes.hex() == GOLDEN_ROOT_PUBLIC
    assert {
        "identity_public": directory.identity.public_bytes.hex(),
        "short_term_public": directory.short_term.public_bytes.hex(),
        "certificate_signature": directory.certificate.signature.hex(),
    } == GOLDEN_DIRECTORY
    for i, golden in enumerate(GOLDEN_CLIENTS):
        client = bed.add_client(f"c{i}", "zone-EU")
        assert (client.identity.public_bytes.hex(),
                client.short_term.public_bytes.hex(),
                client.certificate.signature.hex(),
                client.session_key.key.hex()) == golden
        assert bed.root.verify_chain(client.certificate,
                                     directory.certificate)


# -- (c) a third opinion, where installed -------------------------------------


def test_agrees_with_cryptography_library():
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.asymmetric import ed25519 as c_ed
    from cryptography.hazmat.primitives.asymmetric import x25519 as c_x
    from cryptography.hazmat.primitives.serialization import (
        Encoding,
        PublicFormat,
    )

    def raw(public_key) -> bytes:
        return public_key.public_bytes(Encoding.Raw, PublicFormat.Raw)

    rng = random.Random(0xED25519)
    for case in range(200):
        seed, a, b = (rng.getrandbits(256).to_bytes(32, "little")
                      for _ in range(3))
        message = rng.randbytes(case % 97)

        theirs = c_ed.Ed25519PrivateKey.from_private_bytes(seed)
        ours = SigningKey(seed)
        assert ours.verify_key.public_bytes == raw(theirs.public_key())
        signature = ours.sign(message)
        assert signature == theirs.sign(message)
        assert ours.verify_key.verify(message, signature)
        theirs.public_key().verify(signature, message)  # raises if bad

        their_a = c_x.X25519PrivateKey.from_private_bytes(a)
        their_b = c_x.X25519PrivateKey.from_private_bytes(b)
        our_a, our_b = X25519PrivateKey(a), X25519PrivateKey(b)
        assert our_a.public_bytes == raw(their_a.public_key())
        assert our_b.public_bytes == raw(their_b.public_key())
        shared = their_a.exchange(their_b.public_key())
        assert our_a.exchange(our_b.public_bytes) == shared
        assert our_b.exchange(our_a.public_bytes) == shared
        if case % 8 == 0:  # a table a pair: ≈8 ms each
            assert our_a.exchange(our_b.public_key) == shared
            assert our_b.exchange(our_a.public_key) == shared


# -- (d) derive once, and only once --------------------------------------------


class TestDeriveOnce:
    def test_public_halves_are_derived_once_and_kept(self, monkeypatch):
        calls = []
        real_public_key, real_base = ed._public_key, x25519_base
        monkeypatch.setattr(
            ed, "_public_key",
            lambda seed: calls.append("ed") or real_public_key(seed))
        # (the package re-exports the function `x25519` over the
        # submodule's name, so reach the module through sys.modules)
        monkeypatch.setattr(
            sys.modules["repro.crypto.x25519"], "x25519_base",
            lambda scalar: calls.append("x") or real_base(scalar))
        rng = random.Random(21)
        identity = IdentityKeyPair.generate(rng)
        short_term = ShortTermKeyPair.generate(rng)
        signing, dh = identity.signing_key, short_term.dh_key
        assert calls == []  # nothing is derived before it is asked for
        for _ in range(3):
            signing.sign(b"message")
            assert signing.verify_key is identity.verify_key
            assert identity.public_bytes is signing.verify_key.public_bytes
            assert dh.public_bytes is short_term.public_bytes
        assert sorted(calls) == ["ed", "x"]

    @pytest.mark.parametrize("cls,public", [
        (SigningKey, "verify_key"), (X25519PrivateKey, "public_bytes"),
        (X25519PrivateKey, "public_key")])
    def test_equality_and_hash_depend_on_the_secret_only(self, cls,
                                                         public):
        seed = bytes(range(32))
        fresh, read = cls(seed), cls(seed)
        getattr(read, public)  # only `read` holds its public half
        assert fresh == read and hash(fresh) == hash(read)
        assert len({fresh, read}) == 1
        assert repr(fresh) == repr(read)
        assert cls(seed) != cls(bytes(32))
