"""The crypto batching seam (DESIGN.md "Crypto batching seam").

Three contracts:

* both multi-stream kernels — Python-int lanes under the crossover,
  numpy columns from it — are the ChaCha20 block function: checked
  against the reference :func:`chacha20_block`, the RFC 8439 vectors,
  bytes pinned before the lane kernel existed and (when installed)
  ``cryptography``, with every call forced down each path in turn;
* the lockstep Poly1305 kernel is the Horner loop it sits beside:
  ragged lanes, the carry edges, the RFC 8439 vectors and (when
  installed) ``cryptography``, again down both sides of its size test;
* every batch entry point returns, item for item, the bytes of its
  per-item wrapper, so a round sealed/decoded in one call is the round
  the per-channel engine produces one packet at a time.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.callmanager import CallState
from repro.core.channel import (
    ChannelManifest,
    decode_manifest,
    decode_manifests,
    encode_manifest,
)
from repro.core.client import HerdClient, seal_upstream
from repro.core.network_coding import (
    CODED_PACKET_SIZE,
    ChaffPredictor,
    decode_round,
    decode_rounds,
    make_chaff_packet,
    make_payload_packet,
    xor_bytes,
)
from repro.core.signaling import (
    DOWNSTREAM_PACKET_SIZE,
    KIND_GRANT,
    KIND_VOIP,
    MissingTrialKey,
    TrialKeys,
    make_downstream_chaff,
    make_downstream_packet,
    make_downstream_packets,
    open_downstream_packet,
    open_downstream_packets,
)
from repro.crypto import chacha20
from repro.crypto.chacha20 import (
    ChaCha20Poly1305,
    _keystream_blocks,
    aead_open_many,
    aead_seal_many,
    chacha20_block,
    chacha20_encrypt,
    chacha20_encrypt_many,
    chacha20_keystream,
    chacha20_keystream_many,
    poly1305_mac,
    poly1305_mac_many,
)
from repro.crypto.keys import SessionKey
from repro.crypto.onion import (
    HopKeys,
    OnionCircuitKeys,
    encode_cell,
    unwrap_backward,
    unwrap_layer,
    unwrap_onion,
    wrap_backward,
    wrap_onion,
)
from repro.simulation.live import LiveZone

RFC_KEY = bytes(range(32))
CROSSOVER = chacha20._KERNEL_MIN_BLOCKS

keys32 = st.binary(min_size=32, max_size=32)
nonces12 = st.binary(min_size=12, max_size=12)


def _reference_stream(key, nonce, n_blocks, counter):
    return b"".join(chacha20_block(key, counter + j, nonce)
                    for j in range(n_blocks))


#: The module's two size tests.  Forced to ``scalar`` every cipher call
#: runs on the int-lane kernel and every MAC on the Horner loop (Python
#: ints, no arrays); forced to ``kernel`` both run on numpy, whatever
#: the call's size.  The names are test ids that CI history keys on.
SIZE_TESTS = ("_KERNEL_MIN_BLOCKS", "_LOCKSTEP_MIN_LANES")
FORCED = {"scalar": 2 ** 40, "kernel": 0}


@pytest.fixture(params=["scalar", "kernel", "measured"])
def crossover(request, monkeypatch):
    """Run a test with every call on the Python-int side of both size
    tests, every call on the numpy side, and as shipped."""
    if request.param != "measured":
        for name in SIZE_TESTS:
            monkeypatch.setattr(chacha20, name, FORCED[request.param])


def _on_every_path(call):
    """``call()`` as shipped, then forced down each side."""
    results = [call()]
    shipped = [getattr(chacha20, name) for name in SIZE_TESTS]
    try:
        for forced in FORCED.values():
            for name in SIZE_TESTS:
                setattr(chacha20, name, forced)
            results.append(call())
    finally:
        for name, value in zip(SIZE_TESTS, shipped):
            setattr(chacha20, name, value)
    return results


def _watch(monkeypatch, name, record):
    """Have ``record(*args)`` see every call of ``chacha20.<name>``."""
    inner = getattr(chacha20, name)

    def spy(*args):
        record(*args)
        return inner(*args)

    monkeypatch.setattr(chacha20, name, spy)


def _assert_ragged_call_is_the_block_function(keys, nonces, counts,
                                              counter):
    expected = b"".join(_reference_stream(k, n, c, counter)
                        for k, n, c in zip(keys, nonces, counts))
    assert _on_every_path(lambda: _keystream_blocks(
        keys, nonces, counts, counter)) == [expected] * 3


# -- the kernels against the reference block function -------------------------


class TestKernelDifferential:
    @settings(max_examples=60, deadline=None)
    @given(streams=st.lists(st.tuples(keys32, nonces12), min_size=1,
                            max_size=9),
           n_blocks=st.integers(0, 9),
           counter=st.one_of(st.integers(0, 3),
                             st.integers(0, 2 ** 32 - 9)))
    def test_keystream_many_is_the_block_function(self, streams,
                                                  n_blocks, counter):
        keys = [k for k, _ in streams]
        nonces = [n for _, n in streams]
        expected = [_reference_stream(k, n, n_blocks, counter)
                    for k, n in streams]
        # ... whichever side of the crossover the call falls on.
        assert _on_every_path(lambda: chacha20_keystream_many(
            keys, nonces, n_blocks, counter)) == [expected] * 3

    @settings(max_examples=60, deadline=None)
    @given(streams=st.lists(st.tuples(keys32, nonces12,
                                      st.integers(0, 6)),
                            min_size=1, max_size=4),
           counter=st.one_of(st.sampled_from([0, 1]),
                             st.integers(1, 7).map(
                                 lambda n: 2 ** 32 - n - 6),
                             st.integers(0, 2 ** 32 - 6)))
    def test_ragged_streams_are_the_block_function(self, streams,
                                                   counter):
        """What one onion cell or AEAD record asks for: a few streams
        of a few blocks each, some of none, up to the last counter."""
        _assert_ragged_call_is_the_block_function(*zip(*streams), counter)

    @pytest.mark.parametrize("total", [CROSSOVER - 1, CROSSOVER,
                                       CROSSOVER + 1])
    def test_at_the_shipped_crossover(self, total):
        """The last call the lanes take and the first two numpy does,
        each also forced down the other kernel."""
        rng = random.Random(total)
        counts = [total - 7, 0, 4, 3]
        keys = [rng.randbytes(32) for _ in counts]
        nonces = [rng.randbytes(12) for _ in counts]
        _assert_ragged_call_is_the_block_function(keys, nonces, counts,
                                                  2 ** 32 - total)

    def test_carries_stay_in_their_lane(self, crossover):
        """All-ones key, nonce and counter make the adds of the first
        rounds carry out of 32 bits, in lanes whose neighbours (all-zero
        keys) must not see the carry; a missing mask fails here."""
        ones, zeros, last = b"\xff" * 32, bytes(32), 2 ** 32 - 1
        keys = [zeros, ones, zeros, ones, ones, zeros]
        nonces = [b"\xff" * 12, b"\xff" * 12, bytes(12)] * 2
        assert chacha20_keystream_many(keys, nonces, 1, last) == \
            [chacha20_block(k, last, n) for k, n in zip(keys, nonces)]

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(
        st.tuples(keys32, nonces12,
                  st.one_of(st.sampled_from([0, 1, 63, 64, 65, 301]),
                            st.integers(0, 400)).flatmap(
                      lambda n: st.binary(min_size=n, max_size=n))),
        min_size=1, max_size=8),
        counter=st.integers(0, 5))
    def test_encrypt_many_equals_per_item_on_ragged_lengths(
            self, items, counter):
        keys, nonces, messages = zip(*items)
        batch = chacha20_encrypt_many(keys, nonces, messages, counter)
        assert [len(c) for c in batch] == [len(m) for m in messages]
        for key, nonce, message, ciphertext in zip(keys, nonces,
                                                   messages, batch):
            stream = _reference_stream(key, nonce,
                                       (len(message) + 63) // 64,
                                       counter)[:len(message)]
            assert ciphertext == bytes(
                m ^ s for m, s in zip(message, stream))
            assert ciphertext == chacha20_encrypt(key, nonce, message,
                                                  counter)

    def test_every_named_length_in_one_call(self, crossover):
        rng = random.Random(7)
        lengths = [0, 1, 63, 64, 65, 301, 0, 64]
        keys = [rng.randbytes(32) for _ in lengths]
        nonces = [rng.randbytes(12) for _ in lengths]
        messages = [rng.randbytes(n) for n in lengths]
        batch = chacha20_encrypt_many(keys, nonces, messages)
        assert batch == [chacha20_encrypt(k, n, m)
                         for k, n, m in zip(keys, nonces, messages)]
        assert chacha20_encrypt_many(keys, nonces, batch) == messages

    def test_no_streams_and_no_blocks(self, crossover):
        assert chacha20_keystream_many([], [], 3) == []
        assert chacha20_encrypt_many([], [], []) == []
        assert chacha20_keystream_many([RFC_KEY], [bytes(12)], 0) == [b""]
        assert chacha20_encrypt_many([RFC_KEY], [bytes(12)], [b""]) == [b""]

    @pytest.mark.parametrize("counts,counter", [
        ([1], 0), ([1], 2 ** 32 - 1),              # untransposed serialise
        ([0, 1, 0], 7), ([1, 1, 1, 1], 2 ** 32 - 1),
        ([5, 0, 0, 5, 0, 3], 1), ([0, 0, 4, 0], 0),    # empty in the middle
        ([63], 2 ** 32 - 63), ([9] * 7, 2 ** 32 - 9),  # 63, ending at 2^32
        ([5, 5], 2 ** 32 - 5), ([2, 5, 0, 1], 2 ** 32 - 5),
        ([64, 2, 64], 2 ** 32 - 64),               # 130: rows past 64 blocks
    ], ids=lambda value: str(value).replace(" ", ""))
    def test_byte_rows_on_named_shapes(self, counts, counter):
        """The shapes the int kernel's row builder and serialiser
        branch on or could get wrong: one block, streams of no blocks
        between others, the last call the lanes take, counters whose
        last block is 2^32 − 1, and — forced ``scalar`` — a call
        larger than any the lanes are shipped."""
        rng = random.Random(len(counts) * 1000 + sum(counts))
        _assert_ragged_call_is_the_block_function(
            [rng.randbytes(32) for _ in counts],
            [rng.randbytes(12) for _ in counts], counts, counter)



#: One stream's ``(count, start)``: a few blocks, from a small start, up
#: to the last counter, or anywhere that still fits.
_COUNT_AND_START = st.integers(0, 6).flatmap(lambda count: st.tuples(
    st.just(count), st.one_of(st.integers(0, 3), st.just(2 ** 32 - count),
                              st.integers(0, 2 ** 32 - count))))


class TestPerStreamStarts:
    """One start counter per stream: the bytes of one call per stream,
    whichever kernel the call falls on, so an AEAD record's blocks 0…
    and onion layers' blocks 1… share a call."""

    @settings(max_examples=60, deadline=None)
    @given(streams=st.lists(st.tuples(keys32, nonces12, _COUNT_AND_START),
                            min_size=1, max_size=5))
    def test_starts_are_the_calls_made_apart(self, streams):
        keys = [key for key, _, _ in streams]
        nonces = [nonce for _, nonce, _ in streams]
        counts = [count for _, _, (count, _) in streams]
        starts = [start for _, _, (_, start) in streams]
        apart = b"".join(
            _keystream_blocks([key], [nonce], [count], start)
            for key, nonce, count, start in zip(keys, nonces, counts,
                                                starts))
        assert apart == b"".join(
            _reference_stream(key, nonce, count, start)
            for key, nonce, count, start in zip(keys, nonces, counts,
                                                starts))
        assert _on_every_path(lambda: _keystream_blocks(
            keys, nonces, counts, starts)) == [apart] * 3

    @pytest.mark.parametrize("counts,starts", [
        ([5, 5, 4], [1, 1, 0]),          # a sender's frame: layers, record
        ([5, 5, 5], [1, 1, 0]),          # a receiver's frame
        ([0, 3, 0], [2 ** 32, 7, 0]),    # empty streams, one at the bound
        ([1, 2, 5], [2 ** 32 - 1, 2 ** 32 - 2, 2 ** 32 - 5]),  # all end
        ([40, 30], [0, 2 ** 32 - 30]),   # past the crossover as shipped
    ], ids=lambda value: str(value).replace(" ", ""))
    def test_named_requests(self, crossover, counts, starts):
        rng = random.Random(7)
        keys = [rng.randbytes(32) for _ in counts]
        nonces = [rng.randbytes(12) for _ in counts]
        assert _keystream_blocks(keys, nonces, counts, starts) == b"".join(
            _reference_stream(key, nonce, count, start)
            for key, nonce, count, start in zip(keys, nonces, counts,
                                                starts))

    def test_an_int_is_that_start_for_every_stream(self, crossover):
        keys, nonces = [RFC_KEY, bytes(32)], [bytes(12), b"\x01" * 12]
        for start in (0, 1, 2 ** 32 - 5):
            assert _keystream_blocks(keys, nonces, [5, 3], start) == \
                _keystream_blocks(keys, nonces, [5, 3], [start, start])

    def test_the_bound_is_per_stream(self, crossover):
        """A stream may end at 2^32 whatever the others do, and one
        block past it fails the whole call, as does a negative start
        or a start list of another length."""
        keys, nonces = [RFC_KEY] * 3, [bytes(12)] * 3
        assert len(_keystream_blocks(keys, nonces, [5, 5, 4],
                                     [2 ** 32 - 5, 1, 0])) == 64 * 14
        for counts, starts in (([5, 5, 4], [2 ** 32 - 4, 1, 0]),
                               ([5, 5, 4], [1, 1, 2 ** 32 - 3]),
                               ([5, 5, 4], [0, -1, 0]),
                               ([5, 5, 0], [0, 0, 2 ** 32 + 1])):
            with pytest.raises(ValueError, match="fit in 32 bits"):
                _keystream_blocks(keys, nonces, counts, starts)
        with pytest.raises(ValueError, match="per stream"):
            _keystream_blocks(keys, nonces, [5, 5, 4], [1, 1])

class TestRfc8439ThroughTheKernel:
    def test_block_vector(self, crossover):
        # RFC 8439 §2.3.2, alone and as one column among others.
        nonce = bytes.fromhex("000000090000004a00000000")
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
        assert chacha20_keystream_many([RFC_KEY], [nonce], 1,
                                       counter=1) == [expected]
        others = [bytes([i]) * 32 for i in range(1, 6)]
        for n_others in (4, 5):  # a cell's five blocks, and one more
            streams = chacha20_keystream_many(
                others[:2] + [RFC_KEY] + others[2:n_others],
                [nonce] * (n_others + 1), 1, counter=1)
            assert streams[2] == expected
            assert len(set(streams)) == n_others + 1

    def test_encryption_vector(self, crossover):
        # RFC 8439 §2.4.2
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (b"Ladies and Gentlemen of the class of '99: If I "
                     b"could offer you only one tip for the future, "
                     b"sunscreen would be it.")
        expected = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d")
        assert chacha20_encrypt(RFC_KEY, nonce, plaintext) == expected
        batch = chacha20_encrypt_many(
            [bytes(32), RFC_KEY, RFC_KEY], [nonce] * 3,
            [b"x" * 301, plaintext, b""])
        assert batch[1] == expected and batch[2] == b""

    def test_aead_vector(self, crossover):
        # RFC 8439 §2.8.2: a one-block call for the Poly1305 key, a
        # two-block call for the body.
        aead = ChaCha20Poly1305(bytes(range(0x80, 0xa0)))
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        plaintext = (b"Ladies and Gentlemen of the class of '99: If I "
                     b"could offer you only one tip for the future, "
                     b"sunscreen would be it.")
        expected = bytes.fromhex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691")
        assert aead.encrypt(nonce, plaintext, aad) == expected
        assert aead.decrypt(nonce, expected, aad) == plaintext


class TestKernelValidation:
    """The batch entry points reject what ``chacha20_block`` rejects,
    with its messages, on either side of the crossover."""

    NONCE = bytes(12)

    def test_counter_overflow_raises_instead_of_wrapping(self, crossover):
        last = 2 ** 32 - 1
        assert chacha20_keystream_many([RFC_KEY], [self.NONCE], 1, last) \
            == [chacha20_block(RFC_KEY, last, self.NONCE)]
        for n_blocks, counter in ((2, last), (1, 2 ** 32),
                                  (CROSSOVER + 3, 2 ** 32 - CROSSOVER)):
            with pytest.raises(ValueError, match="fit in 32 bits"):
                chacha20_keystream_many([RFC_KEY] * 2, [self.NONCE] * 2,
                                        n_blocks, counter)
        with pytest.raises(ValueError, match="fit in 32 bits"):
            chacha20_encrypt_many([RFC_KEY], [self.NONCE], [bytes(65)],
                                  counter=last)
        with pytest.raises(ValueError, match="fit in 32 bits"):
            chacha20_keystream(RFC_KEY, self.NONCE, 64, counter=-1)

    def test_key_and_nonce_lengths(self, crossover):
        with pytest.raises(ValueError,
                           match="ChaCha20 key must be 32 bytes"):
            chacha20_keystream_many([RFC_KEY, RFC_KEY[:31]],
                                    [self.NONCE] * 2, 4)
        with pytest.raises(ValueError,
                           match="ChaCha20 nonce must be 12 bytes"):
            chacha20_encrypt_many([RFC_KEY] * 2,
                                  [self.NONCE, self.NONCE + b"\x00"],
                                  [bytes(301)] * 2)
        # 31 + 33 bytes of key material is still two bad keys.
        with pytest.raises(ValueError, match="key must be 32 bytes"):
            chacha20_keystream_many([RFC_KEY[:31], RFC_KEY + b"\x00"],
                                    [self.NONCE] * 2, 4)

    def test_one_key_and_one_nonce_per_stream(self, crossover):
        with pytest.raises(ValueError, match="per stream"):
            chacha20_keystream_many([RFC_KEY] * 2, [self.NONCE], 4)
        with pytest.raises(ValueError, match="per stream"):
            chacha20_encrypt_many([RFC_KEY], [self.NONCE],
                                  [b"a", b"b"])

    def test_negative_block_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            chacha20_keystream_many([RFC_KEY], [self.NONCE], -1)

    @pytest.mark.parametrize("counts", [[-1], [3, -1, 2], [70, -1],
                                        [-70, 80]])
    def test_negative_count_is_refused_ahead_of_the_branch(
            self, crossover, counts):
        """``bytes * -1`` is ``b""``: the int kernel would build a
        short row and return a wrong-length stream."""
        with pytest.raises(ValueError, match="non-negative"):
            _keystream_blocks([RFC_KEY] * len(counts),
                              [self.NONCE] * len(counts), counts, 1)

    def test_one_cell_and_one_record_raise_the_same_messages(
            self, crossover):
        """The B=1 wrappers the data path calls per cell and per frame
        validate as the batch entry points do."""
        with pytest.raises(ValueError,
                           match="ChaCha20 key must be 32 bytes"):
            chacha20_keystream(RFC_KEY[:31], self.NONCE, 64)
        with pytest.raises(ValueError,
                           match="ChaCha20 nonce must be 12 bytes"):
            ChaCha20Poly1305(RFC_KEY).encrypt(self.NONCE[:11], b"frame")
        with pytest.raises(ValueError,
                           match="ChaCha20 nonce must be 12 bytes"):
            ChaCha20Poly1305(RFC_KEY).decrypt(self.NONCE + b"\x00",
                                              bytes(40))
        with pytest.raises(ValueError, match="fit in 32 bits"):
            chacha20_encrypt(RFC_KEY, self.NONCE, bytes(274),
                             counter=2 ** 32 - 4)
        with pytest.raises(ValueError, match="per stream"):
            _keystream_blocks([RFC_KEY], [self.NONCE], [1, 1], 0)


class TestCryptographyOracle:
    """A third implementation, when installed (a dev extra)."""

    def test_keystream_and_seal_equal_cryptography(self, crossover):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.ciphers import (
            Cipher,
            algorithms,
        )
        from cryptography.hazmat.primitives.ciphers.aead import (
            ChaCha20Poly1305 as TheirAead,
        )
        rng = random.Random(20)
        for case in range(200):
            key, nonce = rng.randbytes(32), rng.randbytes(12)
            message = rng.randbytes(rng.choice([0, 64, 160, 274,
                                                rng.randrange(401)]))
            aad = rng.randbytes(case % 3 * 7)
            counter = rng.choice([0, 1, 2 ** 32 - 7])
            theirs = Cipher(algorithms.ChaCha20(
                key, counter.to_bytes(4, "little") + nonce), mode=None)
            assert chacha20_encrypt(key, nonce, message, counter) == \
                theirs.encryptor().update(message)
            assert ChaCha20Poly1305(key).encrypt(nonce, message, aad) == \
                TheirAead(key).encrypt(nonce, message, aad)


# Computed at the commit before the lane kernel (scalar block function
# under four blocks, numpy above): three hops keyed from the shared
# secrets 01…, 02…, 03… with context b"golden", payload bytes(range(160)).
GOLDEN_CELLS = {
    0: {
        "wrap_onion": (
            "8348199597510c9513734fb4f6a3ea399e21848d38d1b3aaa2d4be14de902e65"
            "5c6a75826bd2c0e674de5e86a6500f561933faf96dc0b91732e6b1c617c6caff"
            "b30025a21c95814e8e73d77a3adb9beb6ea943c113430d38dc393e4ab8a80aff"
            "8d5684472817ee361381f1ad48b20d2abb85a4e67cec9f3c516ea3b53dfc9eb8"
            "f327030169d78a9381341fd3dce7c0757b6f6547c6c043d677b11750fd933ce3"
            "fa76ee132e011e905d17f35d591a4a5e60b03a87b9dc5da929a29adfef4e6a16"
            "911ef7dc8451f485fbee700dfa276553e37d0708b46b5630829b2785a28ac148"
            "5e6fe7e46882d887922fd70a592fc026d53180457fc60b14c9d215549b997e73"
            "ac297f4b4b83d3c0cdfa2a936978e00a1db3"),
        "after_entry": (
            "5e212c39cfddb0fb62d4c9e467a1273121ed4708b04a1a777f9ca0ae2a1649d9"
            "3db8928795e232a916a412ef0e237d01e6e853cd01c69a3c07b2db3084e5ac2b"
            "189a67f1dd3054db4f3ce532f63487e7173da6a070e5acfd4047f86125509b58"
            "e6e006a91bfbc4e4d7fad734f624f56ccb774ad562f7a5dd60ea72d063531ce4"
            "aa7f63c0af00f9f5b5d692f418bb53ec6c86c5ae28a15f60dbbaf2cfdb00b047"
            "a9015a093ba1ae9e6bbda53824fbb4acc9dbc5d9436c998ae53c48acedf326a8"
            "8885577f21c5f3c53b40f405e84756d7d755c10c44860e11bc209ae55fd59691"
            "4d7db7cf0fef4cf4454f99bf117373b0a6826f75e5342570f2ebbec99f3eb79b"
            "c43a13e2b408271a580b00a67a4111902108"),
        "after_middle": (
            "4ca55526a177b3106ae902ef7d8dba2c341ee0a92cd1f833a7943471ef9764df"
            "da5b20c6a24060ffd5fdb3f6f0993fdc1d1b82696f6333bc3c9b34ddcc5e7b29"
            "ab141b344adce3994a918bc431096eb6ee7ab16f4ad37d8156b40c62c20647b1"
            "06479ba588f81c31eab8a662b283376297bd1e70a7a7cf8b309a5dd990ec5654"
            "14262132bd9b7edb6c3268e04c0044d842513f6b886267028419d3334add3c78"
            "ab26387fd01f903b61391fbc0314782da5cab7cdd279ca55e7cce7f9e8ff5c87"
            "afe741aca96cd065120cd327fa5c53db7d616dfffc054977e492700bc9edda6c"
            "c7a826f0a085d9a06782824dcf137ca8947f0b1be12ebdd2d6ae7c3ae0b057e6"
            "0d62ff7a5e904680ed4ccf777afabcb8fb96"),
        "wrap_backward": (
            "7c066f6b845d27920723170f6a005d81353ff1bf05cd3bcbc19e12aebbce3acc"
            "b86ccdf8fea8f8bf79d05a9d45f8655d1b2fece2844fffd13db77ea23c42f108"
            "9e35c819f103d73103a6f3db2c1d9edc4d1db0cf1044662581248efe0b5b0fbd"
            "b7f6d270769d96a504cb830f06370a65141d8793cbe3a5830ed9a882ad50a92b"
            "87388e2ee133d0f6c6acd2a9eee1362bc354ac118e69c85a262eec74c3f80c66"
            "aee9bca1205827b3772af6a8cecfd2dbace57b0cb83f857faaa95d058dcc0c36"
            "19fd5d533ffe5114718acfaec6eb844cf7f1dd8886dcc40c09c1e46d4adda74e"
            "64e138e3c9df17d990356a4c953f09da4e3967f0d0bdebc11e13163e2fb22a1c"
            "b869d259b6051a53957886e9fe6d98a969d0"),
    },
    2 ** 32 + 5: {
        "wrap_onion": (
            "0b6149c3c1ec0a1c68a3dc8b8f45afad491c7ba7db87abe762c55a73d4be1b85"
            "27fd3130ac92aac6172cbb11b5f30bd65b5fd803e466422dc9f165b054784653"
            "7fd5a9b5ec588946b5fd3b952dbd614c0467a230fe2bac7b2b1d10a22f4d9aed"
            "02902144f6890a04e601a1f86618102218d7f9c8dfda884ffdde74ceb0eaa9db"
            "4a12d0dd0427b273d92ccc3523e0e13d4e1508a5e121e5d0fd67505d6acd85e0"
            "f8c56eac9f4acaec16a0e98cf19870b1bdcd1364e3661b89eab7d9b9b2b8ab06"
            "766706c0dba67fd648dac17507388487c22a850d188e65d499318df7fb05a4ce"
            "848d39574e0f1eb786a3837f4038a0d3c9e88d888d441d92ab1efb596228f9d3"
            "84df9a1114d151220d2226582d0f644561e0"),
        "after_entry": (
            "bb63df20abc379b2e5f0d698d61a50a1edeb5e127b1f4c6dc96cc7999537cce1"
            "b6f06ec55122ce3619916a46a13b21a96ab9ca0246a92d8079c8373ea2a26241"
            "37afec3061759f8fafb1181a2953868d51ff92c4caa24749cd2622ef29557b4d"
            "1b9377f1ec1875d4260ff4bb4f6fd9888f2c5ff974519ec2dcbd14705159d694"
            "47122ff2fdc0430f260afaad4a515a802f52453c743c5afb94441cba591902be"
            "ec45381c9acec00be2e8ce6392c355571e02290c4a19a4d519ea03023aa6e398"
            "3c88cdb1720568f4968bbfb391b537244481b568531e850c86aed35c7fa59e2b"
            "be19473970ece2679d5b087bc8a79e241dfc49f5ae4052a9c218b55986b50398"
            "853feb552d53c49ba256a58aa26c4f39b1f5"),
        "after_middle": (
            "eade8e86cdc72c4c1853a91b12ca489c6e185005a4c2824e9bc24ae26d85805a"
            "4847a1874f3864698322bd317c52090c79020a05f038566b91105ae99c9d65a1"
            "da4a3143d25476d7959aa68cc6656df0ba24ea769bd3254cfef6ff352e6c9142"
            "b226a08258eabdb775ddafee064c8a494476f70baab8c2c9ef294d58ced693d5"
            "9160adbce611eee76dcedae8684c17f5b542fd67d79e690d94234825cdb91819"
            "71ef99bfb98341e411366441902d37938e14184d96173e6507594bb866009934"
            "19581b1a6fee99bbc0070d514e69820e5a2f59a0526fb1a32bae7708f1cc023f"
            "eb00c589017b13b251bc72f915e2aedf1d364512c47e459c04a2653a4006bca7"
            "aa96a9e88e48b53cd883ecb1190d780f2349"),
        "wrap_backward": (
            "456063219a30acf2348df02497bcb248deb2e7c1e7f4d379eecab61e1e18af64"
            "cddb78427620b32faffd4fa5f3f8fe669cdb8ac1c6fd72e637aeca7086c19df0"
            "66e48f09263c6ebc5c43da3b44d303fb7c43c7cd8431197665ddc1504ed3fa34"
            "42bfca74a95000414aac741dd875a8f0eec0b1d385f1762c8c0f996dd1987f68"
            "6c4efd84a35cd99f6c4e452cd0c02811919b35681e17302da6c78e7c9388eaab"
            "dd4dd6c3d6276774ccfdf1359e8ef1a3a86db6765f88b2a0a5196085854a8d8c"
            "37d79262f2b688afe285a2a065914e802749e1a8aa3858d1ba02ecc6ad6bd547"
            "f48d87635a1721fc9b907134bdc8a5621a92cc20d99f3d9ca79ef461232b27b8"
            "d79f37bb28e8e1cefd15747df454ad3c966a"),
    },
}
GOLDEN_AEAD = (
    "89fa0a032d12a347bf8a35f89410006cd961a0f44561bbaefe8e35de69ddb823"
    "cca10ed0c23b97bf1f1b5cf349b9a10c4eb59b47c91d8eac2a81e33cac72a0e9"
    "3939fe8ea1516aae8c5f07f7543192be8a8f15613b3fa669560eaa5584205ce0"
    "2dbf0e9093bc4193d93299dccefcd9ef991e244bfd28368f37144ea40542c139"
    "21e7413e2db659ebc19af5f1a0b1e5b524e015e19ffa5ac9aa783daa38863ea6"
    "5af8f829dc15cc42f3a73d4eb64afc84")


class TestGoldenBytes:
    """Byte identity with the cipher as it was, without checking the
    old code out."""

    HOPS = [HopKeys.from_shared_secret(bytes([i]) * 32, context=b"golden")
            for i in (1, 2, 3)]
    PAYLOAD = bytes(range(160))

    @pytest.mark.parametrize("sequence", sorted(GOLDEN_CELLS))
    def test_onion_cells(self, crossover, sequence):
        golden = {name: bytes.fromhex(cell) for name, cell
                  in GOLDEN_CELLS[sequence].items()}
        circuit = OnionCircuitKeys(self.HOPS)
        entry, middle, exit_ = self.HOPS
        cell = wrap_onion(circuit, self.PAYLOAD, sequence)
        assert cell == golden["wrap_onion"]
        cell = unwrap_layer(entry, cell, sequence)
        assert cell == golden["after_entry"]
        cell = unwrap_layer(middle, cell, sequence)
        assert cell == golden["after_middle"]
        assert unwrap_layer(exit_, cell, sequence) == \
            encode_cell(self.PAYLOAD, exit_.forward_mac)
        back = wrap_backward(circuit, self.PAYLOAD, sequence)
        assert back == golden["wrap_backward"]
        assert unwrap_backward(circuit, back, sequence) == self.PAYLOAD

    def test_one_sealed_voice_frame(self, crossover):
        sealed = ChaCha20Poly1305(RFC_KEY).encrypt(
            bytes(range(12)), self.PAYLOAD, b"herd")
        assert sealed == bytes.fromhex(GOLDEN_AEAD)


# -- the lockstep MAC against the Horner loop ---------------------------------

P1305 = 2 ** 130 - 5
MAC_LENGTHS = [0, 1, 15, 16, 17, 31, 32, 33, 301, 320]
#: ``r`` clamps to 1, so a tag is the plain sum of the blocks mod p.
R_ONE = (1).to_bytes(16, "little")


def _assert_lockstep_is_the_loop(messages, keys):
    # Shipped, one item is under any lane count: the Horner loop.
    expected = [poly1305_mac(m, k) for m, k in zip(messages, keys)]
    assert _on_every_path(lambda: poly1305_mac_many(
        messages, keys)) == [expected] * 3
    return expected


def _among_random_lanes(message, key, seed=0):
    """``(message, key)`` as lane 17 of 64, the others ragged."""
    rng = random.Random(seed)
    messages = [rng.randbytes(rng.choice(MAC_LENGTHS)) for _ in range(64)]
    keys = [rng.randbytes(32) for _ in range(64)]
    messages[17], keys[17] = message, key
    return messages, keys


def _blocks_summing_to(total):
    """Three full blocks that Horner's rule with r = 1 adds up to
    ``total`` (each block counts with its 2^128 bit)."""
    return (total - 3 * 2 ** 128).to_bytes(16, "little") + bytes(32)


class TestLockstepPoly1305:
    @settings(max_examples=60, deadline=None)
    @given(lanes=st.lists(
        st.tuples(st.sampled_from(MAC_LENGTHS).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)), keys32),
        min_size=1, max_size=80))
    def test_ragged_lanes_equal_the_loop(self, lanes):
        _assert_lockstep_is_the_loop(*zip(*lanes))

    @pytest.mark.parametrize("lanes", [chacha20._LOCKSTEP_MIN_LANES - 1,
                                       chacha20._LOCKSTEP_MIN_LANES,
                                       chacha20._LOCKSTEP_MIN_LANES + 1])
    def test_at_the_shipped_lane_count(self, lanes):
        rng = random.Random(lanes)
        _assert_lockstep_is_the_loop(
            [rng.randbytes(rng.choice(MAC_LENGTHS)) for _ in range(lanes)],
            [rng.randbytes(32) for _ in range(lanes)])

    @pytest.mark.parametrize("message,key", [
        (b"\xff" * 320, bytes(16) + b"\xff" * 16),         # r = 0
        (b"\xff" * 320, b"\xff" * 32),                      # all ones
        (b"\xff" * 301, b"\xff" * 32),
        (bytes(320), b"\xff" * 32),
        (_blocks_summing_to(P1305 - 1), R_ONE + bytes(16)),
        (_blocks_summing_to(P1305), R_ONE + bytes(16)),
        (_blocks_summing_to(P1305 + 1), R_ONE + b"\xff" * 16),
        (_blocks_summing_to(2 ** 130 - 1), R_ONE + b"\xff" * 16),
    ], ids=["r-zero", "all-ones", "all-ones-short-tail", "ones-key",
            "p-minus-1", "p", "p-plus-1", "2^130-minus-1"])
    def test_carry_edges(self, message, key):
        """Where the final carry, the conditional subtraction of p and
        the ``+ s`` carry between the tag's halves can go wrong —
        alone in every lane, and as one lane among random ones."""
        alone, = set(_assert_lockstep_is_the_loop([message] * 40,
                                                  [key] * 40))
        assert _assert_lockstep_is_the_loop(
            *_among_random_lanes(message, key))[17] == alone

    def test_r_one_lands_where_the_edge_cases_say(self):
        s = b"\xff" * 16
        for total in (P1305 - 1, P1305, P1305 + 1, 2 ** 130 - 1):
            tag = poly1305_mac(_blocks_summing_to(total), R_ONE + s)
            assert int.from_bytes(tag, "little") == \
                (total % P1305 + 2 ** 128 - 1) % 2 ** 128

    def test_limbs_stay_inside_the_stated_bound(self, monkeypatch):
        """The overflow argument in ``_lockstep_macs``, observed on the
        input that maximises every limb: what goes into a
        multiplication is below 2^27 + 2^12 (so the accumulator was
        below 2^26 + 2^12) and every row of products below 2^58."""
        seen = {"operand": 0, "products": 0, "calls": 0}
        einsum = np.einsum

        def spy(subscripts, matrix, operand):
            out = einsum(subscripts, matrix, operand)
            seen["operand"] = max(seen["operand"], int(operand.max()))
            seen["products"] = max(seen["products"], int(out.max()))
            seen["calls"] += 1
            return out

        monkeypatch.setattr(np, "einsum", spy)
        monkeypatch.setattr(chacha20, "_LOCKSTEP_MIN_LANES", 0)
        messages, keys = _among_random_lanes(b"\xff" * 320, b"\xff" * 32)
        poly1305_mac_many([b"\xff" * 320] * 8 + messages,
                          [b"\xff" * 32] * 8 + keys)
        assert seen["calls"] == 20
        assert 2 ** 26 < seen["operand"] < 2 ** 27 + 2 ** 12
        assert 2 ** 52 < seen["products"] < 2 ** 58

    def test_rfc_8439_vectors_across_64_lanes(self, crossover):
        # §2.5.2
        key = bytes.fromhex("85d6be7857556d337f4452fe42d506a8"
                            "0103808afb0db2fd4abff6af4149f51b")
        expected = bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")
        message = b"Cryptographic Forum Research Group"
        assert poly1305_mac_many([message] * 64, [key] * 64) == \
            [expected] * 64
        messages, keys = _among_random_lanes(message, key)
        assert poly1305_mac_many(messages, keys)[17] == expected
        # §2.8.2
        key = bytes(range(0x80, 0xa0))
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        plaintext = (b"Ladies and Gentlemen of the class of '99: If I "
                     b"could offer you only one tip for the future, "
                     b"sunscreen would be it.")
        sealed = aead_seal_many([key] * 64, [nonce] * 64,
                                [plaintext] * 64, [aad] * 64)
        assert sealed == [ChaCha20Poly1305(key).encrypt(
            nonce, plaintext, aad)] * 64
        assert sealed[0][-16:] == bytes.fromhex(
            "1ae10b594f09e26a7e902ecbd0600691")
        assert aead_open_many([key] * 64, [nonce] * 64, sealed,
                              [aad] * 64) == [plaintext] * 64

    def test_no_lanes_and_empty_messages(self, crossover):
        assert poly1305_mac_many([], []) == []
        keys = [bytes([i]) * 32 for i in range(40)]
        assert poly1305_mac_many([b""] * 40, keys) == \
            [key[16:] for key in keys]

    def test_validation(self, crossover):
        with pytest.raises(ValueError, match="one Poly1305 key per"):
            poly1305_mac_many([b"a", b"b"], [RFC_KEY])
        with pytest.raises(ValueError, match="key must be 32 bytes"):
            poly1305_mac_many([b"a"] * 40, [RFC_KEY] * 39 + [RFC_KEY[:16]])
        with pytest.raises(ValueError, match="key must be 32 bytes"):
            poly1305_mac(b"x", bytes(16))

    def test_tags_and_seals_equal_cryptography(self, crossover):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.poly1305 import Poly1305
        from cryptography.hazmat.primitives.ciphers.aead import (
            ChaCha20Poly1305 as TheirAead,
        )
        rng = random.Random(21)
        cases = [(rng.randbytes(32), rng.randbytes(12),
                  rng.randbytes(rng.choice([0, 16, 160, 285,
                                            rng.randrange(401)])),
                  rng.randbytes(case % 3 * 7)) for case in range(200)]
        for start in range(0, 200, 64):
            keys, nonces, messages, aads = zip(*cases[start:start + 64])
            assert poly1305_mac_many(messages, keys) == [
                Poly1305.generate_tag(k, m)
                for k, m in zip(keys, messages)]
            assert aead_seal_many(keys, nonces, messages, aads) == [
                TheirAead(k).encrypt(n, m, a)
                for k, n, m, a in zip(keys, nonces, messages, aads)]


class TestAeadBatch:
    def test_a_round_of_trials_rejects_exactly_the_forged_item(self):
        """208 trial decryptions, 8 authentic at seeded positions;
        every byte of every tag flipped in turn fails that item and no
        other."""
        rng = random.Random(208)
        keys = [rng.randbytes(32) for _ in range(208)]
        nonces = [rng.randbytes(12) for _ in range(208)]
        sealed = [rng.randbytes(DOWNSTREAM_PACKET_SIZE) for _ in range(208)]
        authentic = sorted(rng.sample(range(208), 8))
        bodies = {i: rng.randbytes(DOWNSTREAM_PACKET_SIZE - 16)
                  for i in authentic}
        for i, packet in zip(authentic, aead_seal_many(
                [keys[i] for i in authentic],
                [nonces[i] for i in authentic],
                [bodies[i] for i in authentic])):
            sealed[i] = packet
        expected = [bodies.get(i) for i in range(208)]
        assert aead_open_many(keys, nonces, sealed) == expected
        for i in authentic:
            for byte in range(1, 17):
                forged = bytearray(sealed[i])
                forged[-byte] ^= 1 << (byte % 8)
                trial = sealed[:i] + [bytes(forged)] + sealed[i + 1:]
                assert aead_open_many(keys, nonces, trial) == \
                    expected[:i] + [None] + expected[i + 1:]

    def test_one_key_nonce_message_and_aad_per_item(self, crossover):
        """A short argument used to end the ``zip`` early: fewer sealed
        items than asked for, authentic trailing items opened as
        ``None``."""
        keys, nonces = [RFC_KEY] * 3, [bytes(12)] * 3
        sealed = aead_seal_many(keys, nonces, [b"a", b"b", b"c"])
        assert aead_open_many(keys, nonces, sealed, [b""] * 3) == \
            [b"a", b"b", b"c"]
        message = "one key, one nonce, one message and one aad per item"
        for call, items in ((aead_seal_many, [b"a", b"b", b"c"]),
                            (aead_open_many, sealed)):
            with pytest.raises(ValueError, match=message):
                call(keys, nonces, items, [b""] * 2)
            with pytest.raises(ValueError, match=message):
                call(keys, nonces, items[:2])
            with pytest.raises(ValueError, match=message):
                call(keys, nonces[:2], items)
            with pytest.raises(ValueError, match=message):
                call(keys[:2], nonces, items, [b""] * 3)

    def test_seal_is_one_keystream_call(self, monkeypatch):
        """Blocks 0…n of each stream at once: block 0 keys the MAC,
        1…n encrypt the body.  Opening stays two-phase."""
        calls = []
        _watch(monkeypatch, "_keystream_blocks",
               lambda keys, nonces, counts, counter:
               calls.append((list(counts), counter)))
        keys, nonces = [RFC_KEY, bytes(32)], [bytes(12)] * 2
        sealed = aead_seal_many(keys, nonces, [bytes(160), b""])
        assert calls == [([4, 1], 0)]
        del calls[:]
        assert aead_open_many(keys, nonces, sealed) == [bytes(160), b""]
        assert calls == [([1, 1], 0), ([3, 0], 1)]


class TestOneRecordOpen:
    """``ChaCha20Poly1305.decrypt`` is its own code (one kernel call
    for block 0 and the body) beside ``aead_open_many`` (two phases):
    the same plaintext, and ``ValueError`` exactly where the batch
    entry point says ``None``."""

    @staticmethod
    def _both(key, nonce, data, aad):
        batch, = aead_open_many([key], [nonce], [data], [aad])
        try:
            one = ChaCha20Poly1305(key).decrypt(nonce, data, aad)
        except ValueError:
            one = None
        assert one == batch
        return one

    @settings(max_examples=150, deadline=None)
    @given(key=keys32, nonce=nonces12,
           body=st.one_of(st.sampled_from([0, 1, 63, 64, 65, 160, 300])
                          .flatmap(lambda n: st.binary(min_size=n,
                                                       max_size=n)),
                          st.binary(max_size=300)),
           aad=st.one_of(st.just(b""), st.binary(min_size=1, max_size=40)),
           flip=st.one_of(st.none(), st.tuples(
               st.sampled_from(["tag", "body", "aad", "nonce"]),
               st.integers(0, 2 ** 16))))
    def test_decrypt_is_open_many_of_one(self, key, nonce, body, aad,
                                         flip):
        sealed = ChaCha20Poly1305(key).encrypt(nonce, body, aad)
        parts = {"tag": sealed[-16:], "body": sealed[:-16], "aad": aad,
                 "nonce": nonce}
        forged = flip is not None and len(parts[flip[0]]) > 0
        if forged:
            part, bit = flip
            flipped = bytearray(parts[part])
            flipped[bit // 8 % len(flipped)] ^= 1 << bit % 8
            parts[part] = bytes(flipped)
        assert _on_every_path(lambda: self._both(
            key, parts["nonce"], parts["body"] + parts["tag"],
            parts["aad"])) == [None if forged else body] * 3

    def test_data_shorter_than_the_tag(self, crossover):
        aead = ChaCha20Poly1305(RFC_KEY)
        for size in (0, 1, 15):
            assert aead_open_many([RFC_KEY], [bytes(12)],
                                  [bytes(size)]) == [None]
            with pytest.raises(ValueError, match="shorter than the AEAD"):
                aead.decrypt(bytes(12), bytes(size))
        # A bare tag is the empty record.
        assert aead.decrypt(bytes(12), aead.encrypt(bytes(12), b"")) == b""

    def test_a_record_shorter_than_a_tag_costs_no_cipher_work(
            self, monkeypatch):
        """Refused before it takes a key block or a MAC lane, with the
        ``ValueError`` / ``None`` it always got — alone, and beside
        authentic items."""
        calls, lanes = [], []
        _watch(monkeypatch, "_keystream_blocks",
               lambda keys, *_: calls.append(list(keys)))
        _watch(monkeypatch, "poly1305_mac_many",
               lambda messages, keys: lanes.append(len(keys)))
        aead = ChaCha20Poly1305(RFC_KEY)
        for size in (0, 1, 15):
            with pytest.raises(ValueError, match="shorter than the AEAD"):
                aead.decrypt(bytes(12), b"x" * size)
            assert aead_open_many([RFC_KEY], [bytes(12)],
                                  [b"x" * size]) == [None]
        assert calls == [] and lanes == []
        nonces = [bytes(12), bytes(range(12))]
        sealed = aead_seal_many([RFC_KEY] * 2, nonces, [b"a", b"b"])
        del calls[:], lanes[:]
        assert aead_open_many(
            [RFC_KEY, bytes(32), RFC_KEY], [nonces[0], bytes(12),
                                            nonces[1]],
            [sealed[0], b"x" * 15, sealed[1]]) == [b"a", None, b"b"]
        assert calls == [[RFC_KEY] * 2, [RFC_KEY] * 2] and lanes == [2]

    def test_one_record_is_one_kernel_call(self, monkeypatch):
        """Block 0 and the body's blocks together; a forged record
        costs that one call and no byte of it is decrypted."""
        calls, xors = [], []
        _watch(monkeypatch, "_keystream_blocks",
               lambda keys, nonces, counts, counter:
               calls.append((list(counts), counter)))
        _watch(monkeypatch, "xor_bytes", lambda *chunks: xors.append(chunks))
        aead = ChaCha20Poly1305(RFC_KEY)
        nonce = bytes(range(12))
        for size, blocks in ((0, 1), (1, 2), (64, 2), (65, 3), (160, 4)):
            sealed = aead.encrypt(nonce, bytes(size), b"herd")
            del calls[:], xors[:]
            assert aead.decrypt(nonce, sealed, b"herd") == bytes(size)
            assert calls == [([blocks], 0)] and len(xors) == 1
            forged = sealed[:-1] + bytes([sealed[-1] ^ 0x80])
            del calls[:], xors[:]
            with pytest.raises(ValueError, match="authentication failed"):
                aead.decrypt(nonce, forged, b"herd")
            assert calls == [([blocks], 0)] and xors == []


# -- batch == per-item, layer by layer ----------------------------------------


def _session_keys(n, seed=0):
    rng = random.Random(seed)
    return [SessionKey.generate(rng) for _ in range(n)]


class TestUpstreamSeal:
    def test_round_seal_equals_per_client_packets(self):
        """Chaff, payload and a set signal bit, sealed for a whole zone
        at once, are the per-client ``upstream_packet`` bytes."""
        def zone():
            z = LiveZone(n_clients=6, n_channels=3, k=2, seed=11)
            z.clients["client-1"].client.request_outgoing_call()
            return z
        one_by_one, together = zone(), zone()
        cell = bytes(range(200))
        expected, plans = [], []
        for a, b in zip(one_by_one.clients.values(),
                        together.clients.values()):
            for i, (att_a, att_b) in enumerate(zip(a.client.attachments,
                                                   b.client.attachments)):
                payload = cell if (a.client.client_id == "client-2"
                                   and i == 0) else None
                expected.append(a.client.upstream_packet(att_a, payload))
                plans.append(b.client.plan_upstream(att_b, payload))
                assert att_a.sequence == att_b.sequence == 1
        sealed, drawn = seal_upstream(plans)
        assert sealed == expected and drawn == b""
        key = one_by_one.clients["client-2"].client.session_key
        assert make_payload_packet(key, 0, cell) in [p for p, _ in sealed]
        assert seal_upstream([]) == ([], b"")


class TestManifests:
    @settings(max_examples=25, deadline=None)
    @given(items=st.lists(st.tuples(st.integers(0, 63),
                                    st.integers(0, 2 ** 40),
                                    st.booleans(),
                                    st.integers(0, 63)),
                          min_size=1, max_size=20),
           seed=st.integers(0, 2 ** 16))
    def test_decode_manifests_equals_per_item(self, items, seed):
        keys = _session_keys(len(items), seed)
        trials = []
        for key, (client_id, sequence, signal, slot) in zip(keys, items):
            manifest = ChannelManifest(client_id, sequence, signal)
            trials.append((encode_manifest(manifest, key, slot), key,
                           slot, sequence))
        decoded = decode_manifests(trials)
        assert decoded == [decode_manifest(*trial) for trial in trials]
        assert [(m.client_id, m.sequence, m.signal) for m in decoded] \
            == [item[:3] for item in items]

    def test_one_bad_length_rejects_the_call(self):
        key, = _session_keys(1)
        good = encode_manifest(ChannelManifest(1, 2, False), key, 0)
        with pytest.raises(ValueError, match="4 bytes"):
            decode_manifests([(good, key, 0, 2), (good + b"\x00", key,
                                                  1, 2)])
        assert decode_manifests([]) == []


class TestChaffPrediction:
    def test_predict_many_equals_predict(self):
        keys = _session_keys(7, seed=3)
        predictor = ChaffPredictor(dict(enumerate(keys)))
        chaff = [(c, s) for c in range(7) for s in (0, 1, 2 ** 33)]
        predicted = predictor.predict_many(chaff)
        assert predicted == [predictor.predict(c, s) for c, s in chaff]
        assert predicted == [make_chaff_packet(keys[c], s)
                             for c, s in chaff]
        assert predictor.predict_many([]) == []
        with pytest.raises(KeyError, match="no session key"):
            predictor.predict_many([(0, 0), (99, 0)])


def _channel_round(keys, clients, seq, active=None, payload=b""):
    """One channel's (xor_packet, entries, active) with ``clients``
    sending chaff at ``seq`` and ``active`` sending ``payload``."""
    packets = [make_payload_packet(keys[c], seq, payload)
               if c == active and payload
               else make_chaff_packet(keys[c], seq) for c in clients]
    entries = [(c, seq, c % 3 == 0) for c in clients]
    return xor_bytes(*packets), entries, active


class TestDecodeRounds:
    def setup_method(self):
        self.keys = _session_keys(12, seed=5)
        self.predictor = ChaffPredictor(dict(enumerate(self.keys)))

    def test_rounds_decode_as_they_do_one_by_one(self):
        rounds = [
            _channel_round(self.keys, [0, 1, 2], 4),
            _channel_round(self.keys, [3, 4, 5], 4, active=4,
                           payload=b"voice" * 20),
            _channel_round(self.keys, [6, 7], 9, active=6),  # silent call
            _channel_round(self.keys, [8], 1, active=8, payload=b"solo"),
            _channel_round(self.keys, [9, 10, 11], 2),
        ]
        decoded = decode_rounds(rounds, self.predictor)
        assert decoded == [decode_round(x, e, self.predictor, a)
                           for x, e, a in rounds]
        assert [d[0] for d in decoded] == [None, 4, None, 8, None]
        assert decoded[1][1].rstrip(b"\x00") == b"voice" * 20
        assert decoded[4][2] == [9]
        assert decode_rounds([], self.predictor) == []

    def test_misbehaving_sp_detected_inside_a_batch(self):
        honest = _channel_round(self.keys, [0, 1, 2], 4)
        xor_packet, entries, _ = _channel_round(self.keys, [3, 4], 4)
        forged = (xor_bytes(xor_packet, b"\x01" * CODED_PACKET_SIZE),
                  entries, None)
        with pytest.raises(ValueError, match="misbehaving SP"):
            decode_rounds([honest, forged, honest], self.predictor)

    def test_sequence_mismatch_detected_inside_a_batch(self):
        honest = _channel_round(self.keys, [0, 1, 2], 4, active=1,
                                payload=b"ok")
        xor_packet, entries, active = _channel_round(
            self.keys, [3, 4], 4, active=3, payload=b"replayed")
        stale = (xor_packet, [(c, s + 1 if c == 3 else s, sig)
                              for c, s, sig in entries], active)
        with pytest.raises(ValueError, match="sequence mismatch"):
            decode_rounds([honest, stale], self.predictor)
        with pytest.raises(ValueError, match="missing from round"):
            decode_rounds([(xor_packet, entries[1:], 3)], self.predictor)
        with pytest.raises(ValueError, match="wrong size"):
            decode_rounds([honest, (xor_packet[:-1], entries, 3)],
                          self.predictor)

    def test_duplicate_active_entries_take_the_last_sequence(self):
        xor_packet, entries, active = _channel_round(
            self.keys, [3, 4], 4, active=3, payload=b"dup")
        stale = (3, 99, False)
        sender, payload, _ = decode_rounds(
            [(xor_packet, [stale] + entries, active)], self.predictor)[0]
        assert sender == 3 and payload.rstrip(b"\x00") == b"dup"
        with pytest.raises(ValueError, match="sequence mismatch"):
            decode_rounds([(xor_packet, entries + [stale], active)],
                          self.predictor)


class TestBatchedRoundStillAudits:
    """The §3.6.1 failure signals fire through ``process_round``."""

    def _round(self, tamper):
        zone = LiveZone(n_clients=6, n_channels=2, k=2, seed=13,
                        execution="batch-v2")
        zone.run(2)
        upstream = []
        for channel_id, sp in sorted(zone._sp_of_channel.items()):
            members, plans = zone._gather_channel(
                channel_id, sp, HerdClient.plan_upstream)
            packets, manifests = zip(*seal_upstream(plans)[0])
            up = sp.combine_upstream(channel_id, zone.round_index,
                                     packets, manifests)
            numerics, trials = zone._manifest_trials(up)
            entries = [(n, m.sequence, m.signal) for n, m
                       in zip(numerics, decode_manifests(trials))]
            upstream.append((channel_id, up.xor_packet, entries))
        return zone, tamper(upstream)

    def test_nonzero_residue(self):
        def flip(upstream):
            # An honest channel that signals a call, then a forged one.
            channel_id, xor_packet, entries = upstream[0]
            (client, seq, _), rest = entries[0], entries[1:]
            upstream[0] = (channel_id, xor_packet,
                           [(client, seq, True)] + rest)
            channel_id, xor_packet, entries = upstream[1]
            upstream[1] = (channel_id, xor_bytes(
                xor_packet, b"\x80" + bytes(CODED_PACKET_SIZE - 1)),
                entries)
            return upstream
        zone, upstream = self._round(flip)
        with pytest.raises(ValueError, match="misbehaving SP"):
            zone.manager.process_round(zone.round_index, upstream)
        # All or nothing: the round is audited, none of it acted on.
        assert not zone.manager.calls
        zone.manager.process_round(zone.round_index, upstream[:1])
        assert len(zone.manager.calls) == 1

    def test_sequence_mismatch(self):
        zone, upstream = self._round(lambda upstream: upstream)
        # Put a call on channel 0, then present its client's manifest
        # with the wrong sequence: the residue decrypts to garbage.
        numeric = zone.clients["client-0"].numeric_id
        zone.manager.handle_signal(numeric)
        call = zone.manager.calls[numeric]
        channel_id, xor_packet, entries = upstream[call.channel_id]
        upstream[call.channel_id] = (
            channel_id, xor_packet,
            [(c, s + 1 if c == numeric else s, sig)
             for c, s, sig in entries])
        with pytest.raises(ValueError, match="sequence mismatch"):
            zone.manager.process_round(zone.round_index, upstream)


def _poly_keys(trials):
    """Each trial's Poly1305 key, planned as a round plans its trials
    and drawn in one ``seal_upstream`` call."""
    requests = [request for key, channel_id, round_index, _ in trials
                for request in TrialKeys(
                    round_index, [(channel_id, (key,))]).requests]
    _, blocks = seal_upstream([], requests)
    return [blocks[at:at + 32] for at in range(0, len(blocks), 64)]


class TestDownstream:
    def setup_method(self):
        self.keys = _session_keys(9, seed=21)

    def test_seal_many_equals_per_item(self):
        packets = [(self.keys[0], 3, 7, KIND_GRANT, b"\x03\x00" + bytes(8)),
                   (self.keys[1], 4, 7, KIND_VOIP, b""),
                   (self.keys[2], 5, 7, KIND_VOIP, bytes(range(250)))]
        assert make_downstream_packets(packets) == \
            [make_downstream_packet(*p) for p in packets]
        assert make_downstream_packets([]) == []
        with pytest.raises(ValueError, match="unknown downstream kind"):
            make_downstream_packets([packets[0],
                                     (self.keys[1], 4, 7, 0x55, b"")])

    def test_only_the_addressed_member_opens(self):
        """One round's trial decryptions in one call: the addressee
        gets its packet, everyone else — and everyone, for random
        chaff and for a tampered packet — gets nothing."""
        round_index = 12
        voice = make_downstream_packet(self.keys[4], 1, round_index,
                                       KIND_VOIP, b"hello")
        chaff = make_downstream_chaff(random.Random(1))
        tampered = bytearray(make_downstream_packet(
            self.keys[7], 2, round_index, KIND_VOIP, b"never"))
        tampered[40] ^= 0x10
        trials = [(key, channel_id, round_index, packet)
                  for channel_id, packet in enumerate(
                      [chaff, voice, bytes(tampered)])
                  for key in self.keys]
        opened = open_downstream_packets(trials, _poly_keys(trials))
        assert opened == [open_downstream_packet(*t) for t in trials]
        addressed = len(self.keys) + 4
        assert opened[addressed] == (KIND_VOIP, b"hello")
        assert all(o is None for i, o in enumerate(opened)
                   if i != addressed)

    def test_wrong_round_channel_or_size_opens_for_nobody(self):
        packet = make_downstream_packet(self.keys[0], 1, 5, KIND_VOIP,
                                        b"x")
        trials = [(self.keys[0], 1, 5, packet), (self.keys[0], 1, 6, packet),
                  (self.keys[0], 2, 5, packet),
                  (self.keys[0], 1, 5, packet[:-1]),
                  (self.keys[0], 1, 5, b"")]
        assert open_downstream_packets(trials, _poly_keys(trials)) \
            == [(KIND_VOIP, b"x"), None, None, None, None]
        assert open_downstream_packets([], []) == []

    def test_off_size_packets_take_no_mac_lane(self, monkeypatch):
        """An untrusted SP can hand a member anything.  Off-size
        packets mixed into a round open for nobody, change nothing for
        the well-formed trials, and take no MAC lane.  Every trial's
        key block was drawn when the round started, so the open's one
        keystream stream is the addressed body's."""
        round_index = 3
        voice = make_downstream_packet(self.keys[2], 0, round_index,
                                       KIND_VOIP, b"hello")
        chaff = make_downstream_chaff(random.Random(2))
        formed = [(key, channel_id, round_index, packet)
                  for channel_id, packet in enumerate([voice, chaff])
                  for key in self.keys]
        rng = random.Random(3)
        odd = [(self.keys[2], 0, round_index, packet)
               for size in (0, 15, 300, 302, 5000)
               for packet in (rng.randbytes(size),
                              (voice + bytes(size))[:size])]
        mixed = formed + odd
        rng.shuffle(mixed)
        poly_keys, odd_keys = _poly_keys(mixed), _poly_keys(odd)

        keystream, mac = [], []
        _watch(monkeypatch, "_keystream_blocks",
               lambda keys, *_: keystream.extend(keys))
        _watch(monkeypatch, "poly1305_mac_many",
               lambda messages, keys: mac.extend(keys))
        opened = dict(zip(map(id, mixed),
                          open_downstream_packets(mixed, poly_keys)))
        # One MAC per well-formed trial, one body.
        assert keystream == [self.keys[2].key]
        assert len(mac) == len(formed)
        assert [opened[id(trial)] for trial in formed] == \
            [(KIND_VOIP, b"hello") if i == 2 else None
             for i in range(len(formed))]
        assert all(opened[id(trial)] is None for trial in odd)
        assert open_downstream_packets(odd, odd_keys) == [None] * len(odd)
        assert len(mac) == len(formed) and len(keystream) == 1

    def test_a_packet_is_one_mac_input_however_many_try_it(
            self, monkeypatch):
        """A channel's members try its one packet: one MAC input a
        distinct packet, one MAC lane a trial."""
        round_index = 4
        packets = [make_downstream_packet(self.keys[0], 0, round_index,
                                          KIND_VOIP, b"a"),
                   make_downstream_chaff(random.Random(5))]
        trials = [(key, channel_id, round_index, packet)
                  for channel_id, packet in enumerate(packets)
                  for key in self.keys]
        poly_keys = _poly_keys(trials)
        inputs, lanes = [], []
        _watch(monkeypatch, "_mac_input",
               lambda ciphertext, aad: inputs.append(ciphertext))
        _watch(monkeypatch, "poly1305_mac_many",
               lambda messages, keys: lanes.append(len(keys)))
        opened = open_downstream_packets(trials, poly_keys)
        assert opened == [(KIND_VOIP, b"a")] + [None] * (len(trials) - 1)
        assert len(inputs) == 2 and lanes == [len(trials)]

    def test_a_trial_without_its_key_block_is_a_typed_error(self):
        """No trial is opened on a key block that was not drawn for
        it, and nothing draws one late."""
        members = tuple(self.keys[:3])
        trial_keys = TrialKeys(6, [(0, members), (2, members[:2])])
        assert len(trial_keys.requests) == 5
        with pytest.raises(MissingTrialKey):
            trial_keys.poly_keys(0, members)          # not drawn yet
        _, trial_keys.blocks = seal_upstream([], trial_keys.requests)
        assert len(trial_keys.poly_keys(0, members)) == 3
        assert trial_keys.poly_keys(2, members[:2]) == \
            _poly_keys([(key, 2, 6, b"") for key in members[:2]])
        with pytest.raises(MissingTrialKey):
            trial_keys.poly_keys(1, members)          # not planned
        with pytest.raises(MissingTrialKey):
            trial_keys.poly_keys(2, members)          # other members
        packet = make_downstream_chaff(random.Random(6))
        trials = [(key, 0, 6, packet) for key in members]
        with pytest.raises(MissingTrialKey):
            open_downstream_packets(
                trials, trial_keys.poly_keys(0, members)[:2])

    def test_chaff_is_the_per_byte_draw(self):
        """One ``getrandbits`` per packet, the bytes and the generator
        state of one per byte — so no pinned digest moved."""
        fast, reference = random.Random(9), random.Random(9)
        for _ in range(50):
            assert make_downstream_chaff(fast) == bytes(
                reference.getrandbits(8)
                for _ in range(DOWNSTREAM_PACKET_SIZE))
            assert fast.getstate() == reference.getstate()


class TestOnionLayers:
    @settings(max_examples=20, deadline=None)
    @given(n_hops=st.integers(1, 4), sequence=st.integers(0, 2 ** 40),
           payload=st.binary(max_size=256), seed=st.integers(0, 999))
    def test_all_layers_at_once_equal_hop_by_hop(self, n_hops, sequence,
                                                 payload, seed):
        rng = random.Random(seed)
        circuit = OnionCircuitKeys(
            [HopKeys.from_shared_secret(rng.randbytes(32))
             for _ in range(n_hops)])
        # Forward: the client's wrap is what peeling hop by hop undoes.
        cell = encode_cell(payload, circuit.hops[-1].forward_mac)
        wrapped = wrap_onion(circuit, payload, sequence)
        layered = cell
        for hop in reversed(circuit.hops):
            layered = unwrap_layer(hop, layered, sequence)
        assert wrapped == layered
        for hop in circuit.hops:
            layered = unwrap_layer(hop, layered, sequence)
        assert layered == cell
        assert unwrap_onion(circuit, wrapped, sequence) == payload
        # Backward: each mix adds a layer; the client removes them all.
        back = encode_cell(payload, circuit.hops[-1].backward_mac)
        for hop in circuit.hops:
            back = unwrap_layer(hop, back, sequence, forward=False)
        assert wrap_backward(circuit, payload, sequence) == back
        assert unwrap_backward(circuit, back, sequence) == payload
        if n_hops > 1:
            assert wrapped != cell and back != wrapped


# -- the engines, byte for byte -----------------------------------------------


class _CellLog:
    """A wire plane that keeps every cell's bytes."""

    def __init__(self):
        self.cells = []

    def emit(self, src, dst, data, kind=""):
        self.cells.append((src, dst, kind, data))

    def flush_round(self, round_index):
        self.cells.append(("round", round_index))


def _scripted_run(execution, n_channels, k):
    zone = LiveZone(n_clients=8, n_channels=n_channels, k=k, n_sps=2,
                    seed=31, execution=execution)
    zone.wire = log = _CellLog()
    allocated_mid_round = False
    for r in range(14):
        if r == 1:
            zone.start_call("client-0", "client-1")
            zone.start_call("client-2", "client-3")
        if r == 8:
            zone.hang_up("client-2")
            zone.start_call("client-4", "client-5")
        for speaker in ("client-0", "client-1", "client-3", "client-4"):
            if zone.state_of(speaker) is CallState.IN_CALL:
                zone.say(speaker, f"{speaker}@{r}".encode().ljust(160,
                                                                  b"."))
        before = set(zone.manager.calls)
        zone.step()
        allocated_mid_round |= any(
            zone.manager.calls[n].outgoing
            and zone.manager.calls[n].channel_id > 0
            for n in set(zone.manager.calls) - before)
    received = {c: zone.received_by(c) for c in zone.clients}
    return log.cells, received, allocated_mid_round


@pytest.mark.parametrize("n_channels,k", [(4, 2), (4, 4)])
def test_round_engine_emits_the_per_channel_engines_bytes(n_channels, k):
    """Every cell on every link, and every voice cell delivered, is
    byte-identical between the per-item oracle (``event``) and the
    round-batched engine.  With ``k == n_channels`` every signal is
    seen on channel 0, so calls start on later channels of a round the
    batched mix has already read the call state of."""
    event_cells, event_received, _ = _scripted_run("event", n_channels, k)
    batch_cells, batch_received, mid_round = _scripted_run(
        "batch-v2", n_channels, k)
    assert mid_round or k < n_channels
    assert batch_cells == event_cells
    assert batch_received == event_received
    assert any(event_received.values())
