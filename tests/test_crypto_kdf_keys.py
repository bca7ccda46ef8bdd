"""Tests for HKDF, key schedules, and session key material."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.kdf import (
    CIRCUIT_KEY_LABELS,
    derive_keys,
    hkdf_expand,
    hkdf_extract,
    hkdf_sha256,
)
from repro.crypto.keys import IdentityKeyPair, SessionKey, ShortTermKeyPair


class TestHKDFVectors:
    def test_rfc5869_case_1(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk == bytes.fromhex(
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
        okm = hkdf_expand(prk, info, 42)
        assert okm == bytes.fromhex(
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865")

    def test_rfc5869_case_3_empty_salt_info(self):
        ikm = bytes.fromhex("0b" * 22)
        okm = hkdf_sha256(ikm, salt=b"", info=b"", length=42)
        assert okm == bytes.fromhex(
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8")

    def test_expand_length_limit(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)


class TestDeriveKeys:
    def test_all_labels_present_and_distinct(self):
        keys = derive_keys(b"secret" * 6, CIRCUIT_KEY_LABELS)
        assert set(keys) == set(CIRCUIT_KEY_LABELS)
        assert len(set(keys.values())) == len(CIRCUIT_KEY_LABELS)

    def test_context_separates_keys(self):
        a = derive_keys(b"s" * 32, ("k",), context=b"circuit-1")
        b = derive_keys(b"s" * 32, ("k",), context=b"circuit-2")
        assert a["k"] != b["k"]

    def test_custom_length(self):
        keys = derive_keys(b"s" * 32, ("k",), length=16)
        assert len(keys["k"]) == 16


class TestSessionKey:
    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            SessionKey(b"\x00" * 16)

    def test_seeded_generate_is_deterministic(self):
        a = SessionKey.generate(random.Random(0))
        assert a == SessionKey.generate(random.Random(0))
        assert len(a.key) == 32
        assert a != SessionKey.generate(random.Random(1))


class TestKeyPairs:
    def test_identity_sign_verify(self):
        ident = IdentityKeyPair.generate(random.Random(11))
        sig = ident.sign(b"descriptor")
        assert ident.verify_key.verify(b"descriptor", sig)

    def test_short_term_exchange(self):
        rng = random.Random(12)
        a = ShortTermKeyPair.generate(rng)
        b = ShortTermKeyPair.generate(rng)
        assert a.exchange(b.public_bytes) == b.exchange(a.public_bytes)


@given(ikm=st.binary(min_size=1, max_size=64),
       info=st.binary(max_size=32),
       length=st.integers(min_value=1, max_value=128))
def test_hkdf_deterministic_property(ikm, info, length):
    assert (hkdf_sha256(ikm, info=info, length=length)
            == hkdf_sha256(ikm, info=info, length=length))
    assert len(hkdf_sha256(ikm, info=info, length=length)) == length
