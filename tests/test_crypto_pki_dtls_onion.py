"""Tests for PKI, the DTLS-like link, and onion (layered) encryption."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dtls import (
    HandshakeError,
    _HandshakeState,
    _ReceiveWindow,
    establish_link,
)
from repro.crypto.keys import IdentityKeyPair, ShortTermKeyPair
from repro.crypto.onion import (
    CELL_PAYLOAD,
    CELL_SIZE,
    HopKeys,
    OnionCircuitKeys,
    decode_cell,
    encode_cell,
    unwrap_backward,
    unwrap_layer,
    unwrap_onion,
    wrap_backward,
    wrap_onion,
)
from repro.crypto.pki import (
    RootOfTrust,
    issue_certificate,
    make_descriptor,
)


def _rng():
    return random.Random(20150817)


class TestPKI:
    def _setup(self):
        rng = _rng()
        root = RootOfTrust(rng)
        dir_ident = IdentityKeyPair.generate(rng)
        dir_st = ShortTermKeyPair.generate(rng)
        dir_cert = root.certify_zone_directory(
            "zone-EU", dir_ident.public_bytes, dir_st.public_bytes)
        return rng, root, dir_ident, dir_cert

    def test_zone_directory_cert_verifies(self):
        _, root, _, dir_cert = self._setup()
        assert dir_cert.verify(root.public_key)

    def test_client_chain_verifies(self):
        rng, root, dir_ident, dir_cert = self._setup()
        client_ident = IdentityKeyPair.generate(rng)
        client_st = ShortTermKeyPair.generate(rng)
        leaf = issue_certificate(
            dir_ident.signing_key, "client-1", "client", "zone-EU",
            client_ident.public_bytes, client_st.public_bytes)
        assert root.verify_chain(leaf, dir_cert)

    def test_chain_rejects_zone_mismatch(self):
        rng, root, dir_ident, dir_cert = self._setup()
        client_ident = IdentityKeyPair.generate(rng)
        client_st = ShortTermKeyPair.generate(rng)
        leaf = issue_certificate(
            dir_ident.signing_key, "client-1", "client", "zone-NA",
            client_ident.public_bytes, client_st.public_bytes)
        assert not root.verify_chain(leaf, dir_cert)

    def test_chain_rejects_forged_issuer(self):
        rng, root, _, dir_cert = self._setup()
        rogue = IdentityKeyPair.generate(rng)
        client_ident = IdentityKeyPair.generate(rng)
        client_st = ShortTermKeyPair.generate(rng)
        leaf = issue_certificate(
            rogue.signing_key, "client-1", "client", "zone-EU",
            client_ident.public_bytes, client_st.public_bytes)
        assert not root.verify_chain(leaf, dir_cert)

    def test_unknown_role_rejected(self):
        rng = _rng()
        ident = IdentityKeyPair.generate(rng)
        with pytest.raises(ValueError):
            issue_certificate(ident.signing_key, "x", "router", "z",
                              b"\x00" * 32, b"\x00" * 32)

    def test_descriptor_roundtrip(self):
        rng = _rng()
        ident = IdentityKeyPair.generate(rng)
        st_key = ShortTermKeyPair.generate(rng)
        desc = make_descriptor(ident, "mix-1", "zone-EU",
                               st_key.public_bytes, "10.0.0.1:443")
        assert desc.verify()

    def test_descriptor_tamper_detected(self):
        rng = _rng()
        ident = IdentityKeyPair.generate(rng)
        st_key = ShortTermKeyPair.generate(rng)
        desc = make_descriptor(ident, "mix-1", "zone-EU",
                               st_key.public_bytes, "10.0.0.1:443")
        from dataclasses import replace
        tampered = replace(desc, address="10.6.6.6:443")
        assert not tampered.verify()

    def test_zone_certificate_lookup(self):
        _, root, _, dir_cert = self._setup()
        assert root.zone_certificate("zone-EU") == dir_cert
        assert root.zone_certificate("zone-XX") is None


class TestDTLSLink:
    def _links(self):
        rng = _rng()
        a = IdentityKeyPair.generate(rng)
        b = IdentityKeyPair.generate(rng)
        return establish_link(a, b, rng)

    def test_roundtrip_both_directions(self):
        left, right = self._links()
        assert right.open(left.seal(b"hello")) == b"hello"
        assert left.open(right.seal(b"world")) == b"world"

    def test_replay_rejected(self):
        left, right = self._links()
        datagram = left.seal(b"payload")
        assert right.open(datagram) == b"payload"
        assert right.open(datagram) is None

    def test_out_of_order_accepted(self):
        left, right = self._links()
        d0 = left.seal(b"zero")
        d1 = left.seal(b"one")
        assert right.open(d1) == b"one"
        assert right.open(d0) == b"zero"

    def test_forgery_rejected(self):
        left, right = self._links()
        datagram = bytearray(left.seal(b"payload"))
        datagram[-1] ^= 1
        with pytest.raises(ValueError):
            right.open(bytes(datagram))

    def test_short_datagram_rejected(self):
        _, right = self._links()
        with pytest.raises(ValueError):
            right.open(b"\x00" * 4)

    def test_identity_pinning(self):
        rng = _rng()
        a = IdentityKeyPair.generate(rng)
        b = IdentityKeyPair.generate(rng)
        mallory = IdentityKeyPair.generate(rng)
        init = _HandshakeState(a, is_initiator=True, rng=rng)
        resp = _HandshakeState(mallory, is_initiator=False, rng=rng)
        with pytest.raises(HandshakeError):
            init.finish(resp.hello(), expected_identity=b.public_bytes)

    def test_tampered_hello_rejected(self):
        rng = _rng()
        a = IdentityKeyPair.generate(rng)
        b = IdentityKeyPair.generate(rng)
        init = _HandshakeState(a, is_initiator=True, rng=rng)
        resp = _HandshakeState(b, is_initiator=False, rng=rng)
        hello = resp.hello()
        from dataclasses import replace
        bad = replace(hello, ephemeral_public=b"\x42" * 32)
        with pytest.raises(HandshakeError):
            init.finish(bad)

    def test_byte_counters(self):
        left, right = self._links()
        datagram = left.seal(b"x" * 100)
        right.open(datagram)
        assert left.bytes_sent == len(datagram)
        assert right.bytes_received == len(datagram)

    def test_overhead_reported(self):
        left, _ = self._links()
        datagram = left.seal(b"")
        assert len(datagram) == left.overhead


class _SetWindow:
    """The anti-replay window as it was before the bitmap — every
    in-window sequence number in a ``set``, pruned on each new highest
    — kept as the oracle for :class:`_ReceiveWindow`."""

    def __init__(self, size):
        self._size = size
        self._highest = -1
        self._seen = set()

    def check_and_update(self, seq):
        if seq <= self._highest - self._size:
            return False
        if seq in self._seen:
            return False
        self._seen.add(seq)
        if seq > self._highest:
            self._highest = seq
            floor = self._highest - self._size
            self._seen = {s for s in self._seen if s > floor}
        return True


class TestReceiveWindow:
    #: A step relative to the highest sequence number offered so far:
    #: in order, a replay or a late datagram inside the window, the
    #: window's two edges, too old, and a jump the peer picked.
    STEPS = st.one_of(
        st.just(1), st.integers(-20, 3),
        st.sampled_from([-17, -16, -15, 15, 16, 17, 2 ** 40, 2 ** 63]))

    @settings(max_examples=200, deadline=None)
    @given(size=st.sampled_from([1, 16, 1024]),
           start=st.sampled_from([0, 5, 2 ** 32]),
           steps=st.lists(STEPS, max_size=80))
    def test_bitmap_decides_as_the_set_did(self, size, start, steps):
        bitmap, oracle = _ReceiveWindow(size), _SetWindow(size)
        highest = start
        for step in steps:
            seq = min(max(highest + step, 0), 2 ** 64 - 1)
            highest = max(highest, seq)
            assert bitmap.check_and_update(seq) == \
                oracle.check_and_update(seq), seq
            # The state never outgrows the window, however far the
            # peer jumps.
            assert bitmap._seen < 1 << size

    def test_window_edges(self):
        window = _ReceiveWindow(4)
        assert [window.check_and_update(s) for s in (10, 7, 6, 7, 10)] \
            == [True, True, False, False, False]
        assert window.check_and_update(13)       # 7 and 10 stay: 10..13
        assert [window.check_and_update(s) for s in (9, 10, 11, 12)] \
            == [False, False, True, True]
        assert window.check_and_update(2 ** 64 - 1)
        assert not window.check_and_update(13)

    def test_in_order_link_and_late_datagram(self):
        rng = _rng()
        left, right = establish_link(IdentityKeyPair.generate(rng),
                                     IdentityKeyPair.generate(rng), rng)
        late = left.seal(b"late")
        sealed = [left.seal(b"%d" % i) for i in range(1100)]
        assert [right.open(d) for d in sealed[:1023]] == \
            [b"%d" % i for i in range(1023)]
        assert right.open(late) == b"late"      # 1 023 behind: inside
        assert right.open(late) is None
        for datagram in sealed[1023:]:
            assert right.open(datagram) is not None
        assert right.open(sealed[75]) is None   # seen, and now too old


def _circuit(n_hops: int, rng=None) -> OnionCircuitKeys:
    rng = rng or _rng()
    hops = []
    for i in range(n_hops):
        secret = rng.getrandbits(256).to_bytes(32, "little")
        hops.append(HopKeys.from_shared_secret(secret,
                                               context=b"hop%d" % i))
    return OnionCircuitKeys(hops)


class TestOnion:
    def test_cell_roundtrip(self):
        cell = encode_cell(b"voip frame", b"\x01" * 32)
        assert len(cell) == CELL_SIZE
        assert decode_cell(cell, b"\x01" * 32) == b"voip frame"

    def test_cell_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            encode_cell(b"\x00" * (CELL_PAYLOAD + 1), b"\x01" * 32)

    def test_cell_mac_tamper_detected(self):
        cell = bytearray(encode_cell(b"frame", b"\x01" * 32))
        cell[3] ^= 1
        with pytest.raises(ValueError):
            decode_cell(bytes(cell), b"\x01" * 32)

    def test_cell_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            decode_cell(b"\x00" * (CELL_SIZE - 1), b"\x01" * 32)

    @pytest.mark.parametrize("n_hops", [1, 2, 3, 5])
    def test_forward_path_roundtrip(self, n_hops):
        circuit = _circuit(n_hops)
        wrapped = wrap_onion(circuit, b"hello callee", sequence=7)
        assert len(wrapped) == CELL_SIZE
        assert unwrap_onion(circuit, wrapped, sequence=7) == b"hello callee"

    @pytest.mark.parametrize("n_hops", [1, 3, 5])
    def test_backward_path_roundtrip(self, n_hops):
        circuit = _circuit(n_hops)
        wrapped = wrap_backward(circuit, b"hello caller", sequence=3)
        assert unwrap_backward(circuit, wrapped, sequence=3) == b"hello caller"

    def test_hop_by_hop_peeling_matches_full_unwrap(self):
        circuit = _circuit(3)
        wrapped = wrap_onion(circuit, b"data", sequence=0)
        cell = wrapped
        for hop in circuit.hops:
            cell = unwrap_layer(hop, cell, 0, forward=True)
        assert decode_cell(cell, circuit.hops[-1].forward_mac) == b"data"

    def test_bitwise_unlinkability_invariant_i1(self):
        """Invariant I1: the encrypted content on successive links of a
        circuit is uncorrelated — here, each peel changes every part of
        the cell and no two link representations share long runs."""
        circuit = _circuit(3)
        wrapped = wrap_onion(circuit, b"A" * 64, sequence=1)
        representations = [wrapped]
        cell = wrapped
        for hop in circuit.hops[:-1]:
            cell = unwrap_layer(hop, cell, 1, forward=True)
            representations.append(cell)
        for i in range(len(representations)):
            for j in range(i + 1, len(representations)):
                a, b = representations[i], representations[j]
                matches = sum(x == y for x, y in zip(a, b))
                # Random 256+ byte strings agree on ~1/256 of positions.
                assert matches < len(a) * 0.1

    def test_wrong_sequence_fails_mac(self):
        circuit = _circuit(2)
        wrapped = wrap_onion(circuit, b"data", sequence=5)
        with pytest.raises(ValueError):
            unwrap_onion(circuit, wrapped, sequence=6)

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError):
            OnionCircuitKeys([])


@settings(max_examples=20, deadline=None)
@given(payload=st.binary(max_size=CELL_PAYLOAD),
       n_hops=st.integers(min_value=1, max_value=4),
       sequence=st.integers(min_value=0, max_value=2**32))
def test_onion_roundtrip_property(payload, n_hops, sequence):
    circuit = _circuit(n_hops, random.Random(99))
    wrapped = wrap_onion(circuit, payload, sequence)
    assert unwrap_onion(circuit, wrapped, sequence) == payload
