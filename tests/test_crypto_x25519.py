"""Tests for repro.crypto.x25519 against RFC 7748 test vectors."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.x25519 import X25519PrivateKey, x25519, x25519_base


# RFC 7748 §5.2 test vector 1
VEC1_SCALAR = bytes.fromhex(
    "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
VEC1_U = bytes.fromhex(
    "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
VEC1_OUT = bytes.fromhex(
    "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")

# RFC 7748 §5.2 test vector 2
VEC2_SCALAR = bytes.fromhex(
    "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
VEC2_U = bytes.fromhex(
    "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
VEC2_OUT = bytes.fromhex(
    "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957")

# RFC 7748 §6.1 Diffie-Hellman vector
ALICE_PRIV = bytes.fromhex(
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
ALICE_PUB = bytes.fromhex(
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
BOB_PRIV = bytes.fromhex(
    "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
BOB_PUB = bytes.fromhex(
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
SHARED = bytes.fromhex(
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")


class TestRFC7748Vectors:
    def test_vector_1(self):
        assert x25519(VEC1_SCALAR, VEC1_U) == VEC1_OUT

    def test_vector_2(self):
        assert x25519(VEC2_SCALAR, VEC2_U) == VEC2_OUT

    def test_alice_public_key(self):
        assert x25519_base(ALICE_PRIV) == ALICE_PUB

    def test_bob_public_key(self):
        assert x25519_base(BOB_PRIV) == BOB_PUB

    def test_shared_secret_alice_side(self):
        assert x25519(ALICE_PRIV, BOB_PUB) == SHARED

    def test_shared_secret_bob_side(self):
        assert x25519(BOB_PRIV, ALICE_PUB) == SHARED

    def test_iterated_vector_1000(self):
        # RFC 7748 §5.2 iteration test (1,000 rounds — the 1M variant is
        # too slow for pure Python in CI).
        k = bytes.fromhex("09" + "00" * 31)
        u = bytes.fromhex("09" + "00" * 31)
        for _ in range(1000):
            k, u = x25519(k, u), k
        assert k == bytes.fromhex(
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")


class TestKeyAPI:
    def test_generate_deterministic_with_rng(self):
        k1 = X25519PrivateKey.generate(random.Random(7))
        k2 = X25519PrivateKey.generate(random.Random(7))
        assert k1.private_bytes == k2.private_bytes

    def test_generate_distinct_without_rng(self):
        assert (X25519PrivateKey.generate().private_bytes
                != X25519PrivateKey.generate().private_bytes)

    def test_exchange_agreement(self):
        rng = random.Random(42)
        a = X25519PrivateKey.generate(rng)
        b = X25519PrivateKey.generate(rng)
        assert a.exchange(b.public_bytes) == b.exchange(a.public_bytes)

    def test_wrong_length_private_key_rejected(self):
        with pytest.raises(ValueError):
            X25519PrivateKey(b"\x00" * 31)

    def test_wrong_length_u_rejected(self):
        with pytest.raises(ValueError):
            x25519(VEC1_SCALAR, b"\x00" * 16)

    def test_low_order_point_rejected(self):
        with pytest.raises(ValueError):
            x25519(VEC1_SCALAR, b"\x00" * 32)


@settings(max_examples=50, deadline=None)
@given(seed_a=st.integers(min_value=0, max_value=2**63),
       seed_b=st.integers(min_value=0, max_value=2**63))
def test_dh_agreement_property(seed_a, seed_b):
    """Any two honestly generated keys agree on the shared secret."""
    a = X25519PrivateKey.generate(random.Random(seed_a))
    b = X25519PrivateKey.generate(random.Random(seed_b))
    assert a.exchange(b.public_bytes) == b.exchange(a.public_bytes)
