"""The crypto batching seam (DESIGN.md "Crypto batching seam").

Two contracts:

* the numpy multi-stream kernel is the ChaCha20 block function —
  checked against the scalar :func:`chacha20_block` and the RFC 8439
  vectors on both sides of the scalar/kernel crossover;
* every batch entry point returns, item for item, the bytes of its
  per-item wrapper, so a round sealed/decoded in one call is the round
  the per-channel engine produces one packet at a time.
"""

import random

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
    KIND_GRANT,
    KIND_VOIP,
    make_downstream_chaff,
    make_downstream_packet,
    make_downstream_packets,
    open_downstream_packet,
    open_downstream_packets,
)
from repro.crypto import chacha20
from repro.crypto.chacha20 import (
    chacha20_block,
    chacha20_encrypt,
    chacha20_encrypt_many,
    chacha20_keystream,
    chacha20_keystream_many,
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


@pytest.fixture(params=["scalar", "kernel", "measured"])
def crossover(request, monkeypatch):
    """Run a test with every call on the scalar path, every call on
    the numpy kernel, and with the shipped crossover."""
    forced = {"scalar": 2 ** 40, "kernel": 0, "measured": CROSSOVER}
    monkeypatch.setattr(chacha20, "_KERNEL_MIN_BLOCKS",
                        forced[request.param])


# -- the kernel against the scalar block function -----------------------------


class TestKernelDifferential:
    @settings(max_examples=60, deadline=None)
    @given(streams=st.lists(st.tuples(keys32, nonces12), min_size=1,
                            max_size=9),
           n_blocks=st.integers(0, 2 * CROSSOVER + 1),
           counter=st.one_of(st.integers(0, 3),
                             st.integers(0, 2 ** 32 - 2 * CROSSOVER - 2)))
    def test_keystream_many_is_the_block_function(self, streams,
                                                  n_blocks, counter):
        keys = [k for k, _ in streams]
        nonces = [n for _, n in streams]
        expected = [_reference_stream(k, n, n_blocks, counter)
                    for k, n in streams]
        assert chacha20_keystream_many(keys, nonces, n_blocks,
                                       counter) == expected
        # ... whichever side of the crossover the call falls on.
        original = chacha20._KERNEL_MIN_BLOCKS
        try:
            for forced in (0, 2 ** 40):
                chacha20._KERNEL_MIN_BLOCKS = forced
                assert chacha20_keystream_many(
                    keys, nonces, n_blocks, counter) == expected
        finally:
            chacha20._KERNEL_MIN_BLOCKS = original

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
        streams = chacha20_keystream_many(
            others[:2] + [RFC_KEY] + others[2:], [nonce] * 6, 1, counter=1)
        assert streams[2] == expected
        assert len(set(streams)) == 6

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
        sealed = seal_upstream(plans)
        assert sealed == expected
        key = one_by_one.clients["client-2"].client.session_key
        assert make_payload_packet(key, 0, cell) in [p for p, _ in sealed]
        assert seal_upstream([]) == []


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
            packets, manifests = zip(*seal_upstream(plans))
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
        opened = open_downstream_packets(trials)
        assert opened == [open_downstream_packet(*t) for t in trials]
        addressed = len(self.keys) + 4
        assert opened[addressed] == (KIND_VOIP, b"hello")
        assert all(o is None for i, o in enumerate(opened)
                   if i != addressed)

    def test_wrong_round_channel_or_size_opens_for_nobody(self):
        packet = make_downstream_packet(self.keys[0], 1, 5, KIND_VOIP,
                                        b"x")
        assert open_downstream_packets(
            [(self.keys[0], 1, 5, packet), (self.keys[0], 1, 6, packet),
             (self.keys[0], 2, 5, packet), (self.keys[0], 1, 5, packet[:-1]),
             (self.keys[0], 1, 5, b"")]) \
            == [(KIND_VOIP, b"x"), None, None, None, None]
        assert open_downstream_packets([]) == []


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
