"""Tests for Ed25519 against RFC 8032 vectors."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ed25519 import SigningKey, VerifyKey


# RFC 8032 §7.1 TEST 1 (empty message)
T1_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
T1_PUB = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
T1_SIG = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")

# RFC 8032 §7.1 TEST 2 (one byte)
T2_SEED = bytes.fromhex(
    "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
T2_PUB = bytes.fromhex(
    "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
T2_MSG = bytes.fromhex("72")
T2_SIG = bytes.fromhex(
    "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
    "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00")

# RFC 8032 §7.1 TEST 3 (two bytes)
T3_SEED = bytes.fromhex(
    "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7")
T3_PUB = bytes.fromhex(
    "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
T3_MSG = bytes.fromhex("af82")
T3_SIG = bytes.fromhex(
    "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
    "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a")


class TestRFC8032Vectors:
    @pytest.mark.parametrize("seed,pub,msg,sig", [
        (T1_SEED, T1_PUB, b"", T1_SIG),
        (T2_SEED, T2_PUB, T2_MSG, T2_SIG),
        (T3_SEED, T3_PUB, T3_MSG, T3_SIG),
    ])
    def test_sign_vector(self, seed, pub, msg, sig):
        key = SigningKey(seed)
        assert key.verify_key.public_bytes == pub
        assert key.sign(msg) == sig
        assert key.verify_key.verify(msg, sig)


class TestSignVerify:
    def test_verify_rejects_wrong_message(self):
        key = SigningKey.generate(random.Random(1))
        sig = key.sign(b"hello")
        assert not key.verify_key.verify(b"goodbye", sig)

    def test_verify_rejects_corrupted_signature(self):
        key = SigningKey.generate(random.Random(2))
        sig = bytearray(key.sign(b"hello"))
        sig[10] ^= 0xFF
        assert not key.verify_key.verify(b"hello", bytes(sig))

    def test_verify_rejects_wrong_key(self):
        k1 = SigningKey.generate(random.Random(3))
        k2 = SigningKey.generate(random.Random(4))
        sig = k1.sign(b"hello")
        assert not k2.verify_key.verify(b"hello", sig)

    def test_verify_rejects_bad_lengths(self):
        key = SigningKey.generate(random.Random(5))
        assert not key.verify_key.verify(b"m", b"\x00" * 63)

    def test_verify_rejects_oversized_s(self):
        key = SigningKey.generate(random.Random(6))
        sig = key.sign(b"m")
        bad = sig[:32] + b"\xff" * 32
        assert not key.verify_key.verify(b"m", bad)

    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            SigningKey(b"\x00" * 16)

    def test_public_key_length_enforced(self):
        with pytest.raises(ValueError):
            VerifyKey(b"\x00" * 16)

    def test_deterministic_generation(self):
        a = SigningKey.generate(random.Random(9))
        b = SigningKey.generate(random.Random(9))
        assert a.seed == b.seed


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63),
       msg=st.binary(max_size=128))
def test_sign_verify_property(seed, msg):
    key = SigningKey.generate(random.Random(seed))
    assert key.verify_key.verify(msg, key.sign(msg))
