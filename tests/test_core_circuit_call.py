"""End-to-end tests: circuits, mixes, rendezvous, and live calls."""

import copy
import random
import struct
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import rendezvous
from repro.core.circuit import ClientHopHandshake, mix_process_create
from repro.core.invariants import (
    ciphertext_uncorrelated,
    circuit_zone_profile,
    mix_knowledge,
)
from repro.core.mix import Mix
from repro.core.rendezvous import CallEndpoint, CallError, CallSession
from repro.core.wire import encode_call_setup
from repro.crypto import chacha20
from repro.crypto.chacha20 import ChaCha20Poly1305
from repro.crypto.onion import (
    CELL_SIZE,
    HopKeys,
    OnionCircuitKeys,
    unwrap_backward,
    wrap_backward,
    wrap_onion,
)

from conftest import build_testbed


class TestHopHandshake:
    def test_client_and_mix_derive_same_keys(self):
        rng = random.Random(1)
        handshake = ClientHopHandshake(1, rng)
        reply, mix_keys = mix_process_create(handshake.request(), rng)
        client_keys = handshake.finish(reply)
        assert client_keys == mix_keys

    def test_confirmation_detects_tampering(self):
        rng = random.Random(2)
        handshake = ClientHopHandshake(1, rng)
        reply, _ = mix_process_create(handshake.request(), rng)
        bad = replace(reply, confirmation=b"\x00" * 16)
        with pytest.raises(ValueError):
            handshake.finish(bad)

    def test_circuit_id_mismatch_rejected(self):
        rng = random.Random(3)
        handshake = ClientHopHandshake(1, rng)
        reply, _ = mix_process_create(handshake.request(), rng)
        bad = replace(reply, circuit_id=reply.circuit_id + 1)
        with pytest.raises(ValueError):
            handshake.finish(bad)


class TestCircuitBuilder:
    def test_two_hop_circuit_installs_state(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        circuit = testbed.service.build_standing_circuit(client)
        assert 1 <= len(circuit) <= 2
        entry = testbed.mixes[circuit.entry_mix]
        state = entry.circuit_state(circuit.circuit_id)
        assert state.prev_hop == "alice"

    def test_roles_along_path(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        builder = testbed.service.circuit_builder()
        path = ["zone-EU/mix-0", "zone-EU/mix-1"]
        circuit = client.build_circuit(builder, path)
        assert testbed.mixes[path[0]].circuit_state(
            circuit.circuit_id).role == "entry"
        assert testbed.mixes[path[1]].circuit_state(
            circuit.circuit_id).role == "rendezvous"

    def test_single_mix_path_is_rendezvous(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        builder = testbed.service.circuit_builder()
        circuit = client.build_circuit(builder, ["zone-EU/mix-0"])
        state = testbed.mixes["zone-EU/mix-0"].circuit_state(
            circuit.circuit_id)
        assert state.role == "rendezvous"

    def test_empty_path_rejected(self, testbed):
        builder = testbed.service.circuit_builder()
        with pytest.raises(ValueError):
            builder.build([], "alice")

    def test_forward_relay_peels_layers(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        builder = testbed.service.circuit_builder()
        path = ["zone-EU/mix-0", "zone-EU/mix-1"]
        circuit = client.build_circuit(builder, path)
        cell = wrap_onion(circuit.keys, b"hello", 0)
        action = testbed.mixes[path[0]].forward_cell(
            circuit.circuit_id, cell, 0)
        assert action.kind == "forward"
        assert action.peer == path[1]
        # Without a splice, the last mix delivers the decoded payload.
        action = testbed.mixes[path[1]].forward_cell(
            circuit.circuit_id, action.data, 0)
        assert action.kind == "deliver"
        assert action.data == b"hello"

    def test_duplicate_create_names_the_mix(self, testbed):
        mix = testbed.mixes["zone-EU/mix-0"]
        request = ClientHopHandshake(testbed.service.new_circuit_id(),
                                     random.Random(4)).request()
        mix.process_create(request, prev_hop="alice")
        with pytest.raises(ValueError) as raised:
            mix.process_create(request, prev_hop="alice")
        assert str(raised.value) == (f"circuit {request.circuit_id} "
                                     "already exists at zone-EU/mix-0")

    @pytest.mark.parametrize("size", [0, 5, CELL_SIZE - 1, CELL_SIZE + 1,
                                      5000])
    def test_off_size_cell_is_refused_at_every_hop(self, size):
        """A relay neither peels nor forwards a cell of another size
        (fixed-size cells are what makes links unlinkable), and
        refusing one costs the circuit nothing."""
        bed = build_testbed(zone_specs=[("zone-EU", "dc-eu", 3)])
        client = bed.add_client("alice", "zone-EU")
        path = [f"zone-EU/mix-{i}" for i in range(3)]
        circuit = client.build_circuit(bed.service.circuit_builder(), path)
        circuit_id = circuit.circuit_id
        assert [bed.mixes[m].circuit_state(circuit_id).role
                for m in path] == ["entry", "middle", "rendezvous"]
        cell = wrap_onion(circuit.keys, b"hello", 0)
        for mix_id in path:
            mix = bed.mixes[mix_id]
            before = (mix.cells_relayed,
                      copy.copy(mix.circuit_state(circuit_id)))
            for relay in (mix.forward_cell, mix.backward_cell):
                with pytest.raises(ValueError, match="wrong size"):
                    relay(circuit_id, bytes(size), 0)
            assert (mix.cells_relayed,
                    mix.circuit_state(circuit_id)) == before
            # The well-formed cell of the same sequence still relays.
            action = mix.forward_cell(circuit_id, cell, 0)
            assert mix.cells_relayed == before[0] + 1
            cell = action.data
        assert (action.kind, action.data) == ("deliver", b"hello")


class TestRendezvousAndCalls:
    def test_interzone_call_delivers_voice_both_ways(self, call_pair):
        testbed, caller, callee = call_pair
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        assert session.established
        frame = b"\x11" * 160
        assert session.send_voice("caller_to_callee", frame) == frame
        reply = b"\x22" * 160
        assert session.send_voice("callee_to_caller", reply) == reply

    def test_call_has_at_most_five_hops(self, call_pair):
        testbed, caller, callee = call_pair
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        assert session.link_hops() <= 5

    def test_many_frames_sequence_correctly(self, call_pair):
        testbed, caller, callee = call_pair
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        for i in range(50):
            frame = bytes([i % 256]) * 160
            assert session.send_voice("caller_to_callee", frame) == frame

    def test_every_hop_sees_the_same_cells_on_either_kernel(
            self, monkeypatch):
        """The data path end to end on both sides of the cipher's one
        branch: 20 frames each way arrive intact, and the cell every
        mix hands on is the same bytes whether the keystream came from
        the int-lane kernel, the numpy kernel or the shipped mix."""
        def run(crossover):
            seen = []

            def recording(relay):
                def relay_and_record(mix, *args):
                    action = relay(mix, *args)
                    seen.append((mix.mix_id, action.kind, action.data))
                    return action
                return relay_and_record

            with monkeypatch.context() as patch:
                patch.setattr(chacha20, "_KERNEL_MIN_BLOCKS", crossover)
                for name in ("forward_cell", "backward_cell",
                             "inject_backward"):
                    patch.setattr(Mix, name, recording(getattr(Mix, name)))
                bed = build_testbed(seed=1)
                for name, zone in (("alice", "zone-EU"),
                                   ("bob", "zone-NA")):
                    # Two mixes a side, whatever the seed would draw.
                    client = bed.add_client(name, zone)
                    other, = (m for m in bed.mixes if m != client.mix_id
                              and m.startswith(zone))
                    client.build_circuit(bed.service.circuit_builder(),
                                         [client.mix_id, other])
                    bed.service.register_callee(client)
                session = bed.call("alice", "bob")
                frames = random.Random(1)
                for _ in range(20):
                    for direction in ("caller_to_callee",
                                      "callee_to_caller"):
                        frame = frames.randbytes(160)
                        assert session.send_voice(direction, frame) \
                            == frame
            return seen

        shipped = run(chacha20._KERNEL_MIN_BLOCKS)
        # Key negotiation and 40 frames, four mixes each.
        assert [kind for _, kind, _ in shipped] == \
            ["forward", "to_peer_mix", "backward", "backward"] * 42
        assert run(0) == shipped
        assert run(2 ** 40) == shipped

    def test_a_frame_across_four_mixes_is_six_cipher_calls(
            self, monkeypatch):
        """What one voice frame asks of the cipher, in order: the
        sender's one call — its two onion layers from block 1 and its
        AEAD record (block 0 and three of body) from block 0 — one
        layer at each of the four mixes, and the receiver's one call:
        its two layers and the longest record a cell holds (block 0
        and four of body), since the length is inside the cell."""
        bed = build_testbed(seed=1)
        for name, zone in (("alice", "zone-EU"), ("bob", "zone-NA")):
            client = bed.add_client(name, zone)
            other, = (m for m in bed.mixes if m != client.mix_id
                      and m.startswith(zone))
            client.build_circuit(bed.service.circuit_builder(),
                                 [client.mix_id, other])
            bed.service.register_callee(client)
        session = bed.call("alice", "bob")
        calls = []
        inner = chacha20._keystream_blocks

        def spy(keys, nonces, counts, counter):
            calls.append((list(counts), counter))
            return inner(keys, nonces, counts, counter)

        monkeypatch.setattr(chacha20, "_keystream_blocks", spy)
        for direction in ("caller_to_callee", "callee_to_caller"):
            del calls[:]
            assert session.send_voice(direction, bytes(160)) == bytes(160)
            assert calls == [([5, 5, 4], [1, 1, 0]), ([5], 1), ([5], 1),
                             ([5], 1), ([5], 1), ([5, 5, 5], [1, 1, 0])]

    def test_call_without_registration_fails(self, testbed):
        caller = testbed.add_client("alice", "zone-EU")
        callee = testbed.add_client("bob", "zone-NA")
        testbed.ready_for_calls("alice")
        testbed.service.build_standing_circuit(callee)  # not registered
        with pytest.raises(CallError):
            testbed.service.establish_call(caller, callee.certificate,
                                           callee)

    def test_call_to_unknown_zone_fails(self, call_pair):
        testbed, caller, callee = call_pair
        forged = replace(callee.certificate, zone_id="zone-XX")
        with pytest.raises(CallError):
            testbed.service.establish_call(caller, forged, callee)

    def test_call_without_circuits_fails(self, testbed):
        caller = testbed.add_client("alice", "zone-EU")
        callee = testbed.add_client("bob", "zone-NA")
        with pytest.raises(CallError):
            testbed.service.establish_call(caller, callee.certificate,
                                           callee)

    def test_intrazone_call_works(self, testbed):
        caller = testbed.add_client("alice", "zone-EU")
        callee = testbed.add_client("bob", "zone-EU")
        testbed.ready_for_calls("alice")
        testbed.ready_for_calls("bob")
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        frame = b"\x42" * 100
        assert session.send_voice("caller_to_callee", frame) == frame

    def test_third_zone_circuit_for_shared_zone(self, testbed):
        # §3.3: caller and callee in the same zone may use a different
        # zone's mixes to avoid depending on a single jurisdiction.
        testbed.add_zone("zone-SA", "dc-sa", 2)
        caller = testbed.add_client("alice", "zone-EU")
        callee = testbed.add_client("bob", "zone-EU")
        testbed.service.build_standing_circuit(caller, zone_id="zone-SA")
        testbed.service.build_standing_circuit(callee)
        testbed.service.register_callee(callee)
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        zones = circuit_zone_profile(
            caller.circuit,
            {m: mid.zone.zone_id for m, mid in testbed.mixes.items()})
        assert set(zones) == {"zone-SA"}
        frame = b"\x01" * 60
        assert session.send_voice("caller_to_callee", frame) == frame


#: Forged call-setup bytes, keyed by what the test expects to hear:
#: ``forge(setup, encoded) -> bytes relayed instead``.
_FORGED_SETUPS = {
    "ACCEPT for call": lambda setup, data: encode_call_setup(
        replace(setup, call_id=setup.call_id + 1))
    if setup.is_accept else data,
    "malformed INVITE": lambda setup, data: data
    if setup.is_accept else data[:-1],
    "expected an ACCEPT": lambda setup, data: encode_call_setup(
        replace(setup, is_accept=False)) if setup.is_accept else data,
}


class TestCallSetup:
    """INVITE and ACCEPT are ``core/wire`` call-setup messages, and a
    forged or mismatched one fails the call."""

    def test_invite_and_accept_carry_the_call_id(self, call_pair,
                                                 monkeypatch):
        testbed, caller, callee = call_pair
        relayed = []

        def recording(setup):
            relayed.append((setup.is_accept, setup.call_id))
            return encode_call_setup(setup)
        monkeypatch.setattr(rendezvous, "encode_call_setup", recording)
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        assert relayed == [(False, session.call_id),
                           (True, session.call_id)]
        assert (session.caller.send_seq, session.callee.send_seq) == (1, 1)

    @pytest.mark.parametrize("error", sorted(_FORGED_SETUPS))
    def test_forged_setup_fails_the_call(self, call_pair, monkeypatch,
                                         error):
        testbed, caller, callee = call_pair
        forge = _FORGED_SETUPS[error]
        monkeypatch.setattr(
            rendezvous, "encode_call_setup",
            lambda setup: forge(setup, encode_call_setup(setup)))
        with pytest.raises(CallError, match=error):
            testbed.service.establish_call(caller, callee.certificate,
                                           callee)


def _bare_session(sender_hops, receiver_hops, call_key, send_seq):
    """A caller → callee session over bare circuit keys: what ``seal``
    and ``open`` read of it, with no testbed behind it."""
    session = CallSession(
        caller=CallEndpoint(None, SimpleNamespace(
            keys=OnionCircuitKeys(sender_hops)), send_seq),
        callee=CallEndpoint(None, SimpleNamespace(
            keys=OnionCircuitKeys(receiver_hops))),
        mixes={}, call_id=1)
    session._caller_aead = ChaCha20Poly1305(call_key)
    session.established = True
    return session


def _e2e_nonce(seq):
    return b"e2e\x00" + struct.pack("<Q", seq)


_hop_keys = st.builds(HopKeys, *[st.binary(min_size=32, max_size=32)] * 4)


class TestOneCipherCallPerEnd:
    """``seal`` and ``open`` each make one kernel call for the record
    and every layer of their end, and give the bytes of the two-call
    composition they replace: ``ChaCha20Poly1305.encrypt`` then
    ``wrap_onion``, ``unwrap_backward`` then ``decrypt``."""

    HOPS = [HopKeys.from_shared_secret(bytes([i]) * 32, context=b"e2e")
            for i in range(1, 5)]
    KEY = bytes(range(32))

    @settings(max_examples=80, deadline=None)
    @given(frame=st.binary(max_size=240),
           sender=st.lists(_hop_keys, min_size=1, max_size=3),
           receiver=st.lists(_hop_keys, min_size=1, max_size=3),
           key=st.binary(min_size=32, max_size=32),
           seq=st.one_of(st.integers(0, 3), st.integers(0, 2 ** 40)))
    def test_seal_and_open_are_the_two_call_composition(
            self, frame, sender, receiver, key, seq):
        session = _bare_session(sender, receiver, key, seq)
        aead = ChaCha20Poly1305(key)
        record = aead.encrypt(_e2e_nonce(seq), frame)
        assert session.seal("caller_to_callee", frame) == (
            seq, wrap_onion(OnionCircuitKeys(sender), record, seq))
        assert session.caller.send_seq == seq + 1
        # What the receiver's entry mix hands it: the record under the
        # cell MAC and every backward layer of its circuit.
        circuit = OnionCircuitKeys(receiver)
        arriving = wrap_backward(circuit, record, seq)
        assert aead.decrypt(_e2e_nonce(seq), unwrap_backward(
            circuit, arriving, seq)) == frame
        assert session.open("caller_to_callee", seq, arriving) == frame

    def test_an_oversized_frame_uses_no_sequence_number(
            self, call_pair, monkeypatch):
        """240 bytes and the 16-byte tag fill a cell.  One byte more is
        refused with the cell's own message before any cipher work, and
        the next frame takes the number the refused one did not."""
        testbed, caller, callee = call_pair
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        calls = []
        inner = chacha20._keystream_blocks
        monkeypatch.setattr(chacha20, "_keystream_blocks",
                            lambda *args: calls.append(args) or inner(*args))
        before = session.caller.send_seq
        with pytest.raises(ValueError, match=r"^payload \(257 bytes\) "
                           r"exceeds cell capacity \(256\)$"):
            session.send_voice("caller_to_callee", b"x" * 241)
        assert calls == [] and session.caller.send_seq == before
        assert session.send_voice("caller_to_callee", b"x" * 240) == \
            b"x" * 240
        assert session.caller.send_seq == before + 1

    def _arriving(self, record, seq=7):
        """A receiver of two hops and the cell it is handed."""
        session = _bare_session(self.HOPS[:2], self.HOPS[2:], self.KEY, 0)
        return session, wrap_backward(OnionCircuitKeys(self.HOPS[2:]),
                                      record, seq)

    def _open_fails(self, monkeypatch, session, cell, message, seq=7):
        """``open`` raises ``message``; returns the kernel calls it made
        and whether any bytes were decrypted."""
        calls, xors = [], []
        inner_blocks, inner_xor = chacha20._keystream_blocks, \
            chacha20.xor_bytes
        monkeypatch.setattr(chacha20, "_keystream_blocks",
                            lambda *args: calls.append(args)
                            or inner_blocks(*args))
        monkeypatch.setattr(chacha20, "xor_bytes",
                            lambda *args: xors.append(args)
                            or inner_xor(*args))
        with pytest.raises(ValueError, match=message):
            session.open("caller_to_callee", seq, cell)
        monkeypatch.undo()
        return len(calls), len(xors)

    def test_tampering_fails_at_its_own_check_in_order(self, monkeypatch):
        """Cell size (before the kernel call), then the cell MAC, then
        the record's tag; no byte is decrypted unless all three pass."""
        frame = bytes(range(160))
        record = ChaCha20Poly1305(self.KEY).encrypt(_e2e_nonce(7), frame)
        session, cell = self._arriving(record)
        assert session.open("caller_to_callee", 7, cell) == frame
        for size in (0, CELL_SIZE - 1, CELL_SIZE + 1):
            assert self._open_fails(monkeypatch, session, bytes(size),
                                    "cell has the wrong size") == (0, 0)
        for index in (0, 2, 200, CELL_SIZE - 1):
            flipped = bytearray(cell)
            flipped[index] ^= 0x10
            assert self._open_fails(
                monkeypatch, session, bytes(flipped),
                "end-to-end cell MAC invalid") == (1, 0)
        for index in (0, 159, 160, len(record) - 1):   # body and tag
            forged = bytearray(record)
            forged[index] ^= 0x01
            _, forged_cell = self._arriving(bytes(forged))
            assert self._open_fails(
                monkeypatch, session, forged_cell,
                "AEAD authentication failed") == (1, 0)
        _, short_cell = self._arriving(record[:15])
        assert self._open_fails(monkeypatch, session, short_cell,
                                "shorter than the AEAD tag") == (1, 0)

    def test_the_receiver_draws_the_longest_record(self):
        """Its length is inside the cell, so the receiver's one call
        covers block 0 and four of body whatever the frame: a full
        cell and an empty frame both open."""
        for frame in (b"", b"\x01" * 240):
            record = ChaCha20Poly1305(self.KEY).encrypt(_e2e_nonce(7),
                                                        frame)
            session, cell = self._arriving(record)
            assert session.open("caller_to_callee", 7, cell) == frame


class TestSecurityInvariants:
    def test_i1_successive_link_ciphertexts_uncorrelated(self, call_pair):
        testbed, caller, callee = call_pair
        session = testbed.service.establish_call(
            caller, callee.certificate, callee)
        # Capture the cell at each link by replaying the relay manually.
        from repro.crypto.onion import wrap_onion
        seq = session.caller.send_seq
        cell0 = wrap_onion(caller.circuit.keys, b"\x33" * 160, seq)
        representations = [cell0]
        cell = cell0
        circuit_id = caller.circuit.circuit_id
        for mix_id in caller.circuit.path[:-1]:
            action = testbed.mixes[mix_id].forward_cell(circuit_id, cell,
                                                        seq)
            representations.append(action.data)
            cell = action.data
        assert ciphertext_uncorrelated(representations)

    def test_i2_interior_mix_knows_only_neighbours(self, call_pair):
        testbed, caller, callee = call_pair
        testbed.service.establish_call(caller, callee.certificate, callee)
        circuit = caller.circuit
        entry = testbed.mixes[circuit.entry_mix]
        knowledge = mix_knowledge(entry, circuit.circuit_id)
        # I3: the caller's mix knows the caller and the next mix...
        assert knowledge["prev_hop"] == "alice"
        if len(circuit) > 1:
            assert knowledge["next_hop"] == circuit.path[1]
        # ...and nothing in the state names the callee or its zone.
        state = entry.circuit_state(circuit.circuit_id)
        for value in (state.prev_hop, state.next_hop or ""):
            assert "bob" not in value
            assert "zone-NA" not in (value or "") or \
                len(caller.circuit) == 1

    def test_i3_rendezvous_mixes_never_learn_clients(self, call_pair):
        testbed, caller, callee = call_pair
        testbed.service.establish_call(caller, callee.certificate, callee)
        rdv_c = testbed.mixes[caller.circuit.rendezvous_mix]
        state = rdv_c.circuit_state(caller.circuit.circuit_id)
        # The caller's rendezvous mix sees the entry mix behind it and
        # the peer rendezvous mix ahead — never "bob".
        assert "bob" not in (state.prev_hop or "")
        assert "bob" not in (state.next_hop or "")

    def test_i4_circuit_mixes_in_own_zone(self, call_pair):
        testbed, caller, callee = call_pair
        mix_zone = {m: mix.zone.zone_id
                    for m, mix in testbed.mixes.items()}
        assert set(circuit_zone_profile(caller.circuit, mix_zone)) \
            == {"zone-EU"}
        assert set(circuit_zone_profile(callee.circuit, mix_zone)) \
            == {"zone-NA"}

    def test_i5_rendezvous_mix_uniform(self):
        from repro.core.invariants import is_uniform_choice
        bed = build_testbed(zone_specs=[("zone-EU", "dc-eu", 4)])
        client = bed.add_client("alice", "zone-EU")
        counts = {}
        for _ in range(200):
            circuit = bed.service.build_standing_circuit(client)
            counts[circuit.rendezvous_mix] = \
                counts.get(circuit.rendezvous_mix, 0) + 1
        assert is_uniform_choice(counts, n_options=4, tolerance=0.4)


class TestPerRunIds:
    """Numeric client ids live on the zone's directory and circuit
    ids on the testbed's rendezvous service, not in module counters:
    a second seeded build in one process hands out the same ids."""

    @staticmethod
    def _ids(seed):
        from repro.simulation.testbed import build_testbed as build
        bed = build(seed=seed)
        numeric, circuits = [], []
        for zone_id in ("zone-EU", "zone-NA"):
            for i in range(3):
                client = bed.add_client(f"{zone_id}-c{i}", zone_id)
                bed.ready_for_calls(client.client_id)
                numeric.append((zone_id, client.numeric_id))
                circuits.append(client.circuit.circuit_id)
        return numeric, circuits

    def test_second_build_sees_the_same_ids(self):
        first = self._ids(1)
        assert self._ids(1) == first
        numeric, circuits = first
        # Zone-wide numeric ids; circuit ids unique testbed-wide.
        assert numeric == [(z, i) for z in ("zone-EU", "zone-NA")
                           for i in range(3)]
        assert len(set(circuits)) == len(circuits)
