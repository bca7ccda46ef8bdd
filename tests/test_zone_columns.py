"""A zone round on roster columns (DESIGN.md §15 "Roster columns").

``batch-v2`` builds a round's packets, manifests, trial keys and trials
as arrays over each channel's roster columns; ``event`` keeps the
per-item functions — ``HerdClient.upstream_packet``,
``decode_manifest``, ``ChaffPredictor.predict``,
``open_downstream_packet`` — as the B = 1 case.  This file pins:

* the column-built round equals the per-item one, byte for byte, with
  the same kernel blocks in one call;
* the client side and the mix side keep a key column each: a member
  whose session key differs from the mix's copy fails both engines the
  same way, as does a tampered XOR packet;
* the mix, not the client, owns the sequence it expects next from each
  member, and follows the manifests across a jump and a 2^25 wrap;
* a round checks each roster once.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.crypto.chacha20 as chacha20
from repro.core.callmanager import CallState
from repro.core.channel import decode_manifest, open_manifests
from repro.core.client import ChannelAttachment, HerdClient, seal_upstream
from repro.core.network_coding import (
    CODED_PAYLOAD,
    ChaffPredictor,
    decode_rounds,
    xor_bytes,
)
from repro.core.signaling import (
    KIND_VOIP,
    TrialKeys,
    make_downstream_chaff,
    make_downstream_packet,
    open_downstream_packet,
    open_downstream_packets,
)
from repro.core.superpeer import SuperPeer
from repro.crypto.chacha20 import key_words
from repro.crypto.keys import SessionKey
from repro.simulation.live import ChannelRoster, LiveZone

ENGINES = ["event", "batch-v2"]


class _Kernel:
    """Records the block total of every ``_keystream_blocks`` call."""

    def __init__(self):
        self.calls = []
        self._inner = chacha20._keystream_blocks

    def __enter__(self):
        def spy(keys, nonces, counts, counter):
            self.calls.append(sum(counts))
            return self._inner(keys, nonces, counts, counter)
        chacha20._keystream_blocks = spy
        return self

    def __exit__(self, *_):
        chacha20._keystream_blocks = self._inner


#: Sequences on both sides of the manifest's 2^25 wrap and of the
#: nonce's high word (2^32), and far from both.
_SEQUENCES = st.one_of(st.integers(0, 2 ** 16),
                       st.integers(2 ** 25 - 4, 2 ** 25 + 4),
                       st.integers(2 ** 32 - 4, 2 ** 32 + 4),
                       st.integers(0, 2 ** 62))


@st.composite
def _channels(draw):
    """One channel's round: 1-64 members, each a key, a sequence and a
    signal bit, and at most one payload of 0-292 bytes."""
    n = draw(st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    members = [(SessionKey.generate(rng), draw(_SEQUENCES),
                draw(st.booleans())) for _ in range(n)]
    payload = draw(st.one_of(
        st.none(), st.tuples(st.integers(0, n - 1),
                             st.binary(max_size=CODED_PAYLOAD))))
    return members, dict([payload] if payload else [])


class TestColumnsEqualPerItem:
    @settings(max_examples=40, deadline=None)
    @given(channel=_channels(), channel_id=st.integers(0, 300),
           round_index=st.integers(0, 2 ** 40))
    @example(channel=([(SessionKey(bytes(range(32))), 2 ** 32 - 1, True),
                       (SessionKey(bytes(32)), 2 ** 25 - 1, False)],
                      {1: b"x" * CODED_PAYLOAD}),
             channel_id=7, round_index=2 ** 32)
    def test_round_equals_the_per_item_functions(self, channel,
                                                 channel_id, round_index):
        members, payloads = channel
        n = len(members)
        keys = key_words([key.key for key, _, _ in members])
        sequences = [sequence for _, sequence, _ in members]
        signals = [signal for _, _, signal in members]
        trial_keys = TrialKeys(round_index, [(channel_id, keys)])
        # The column round: one kernel call for everything it seals
        # and draws.
        with _Kernel() as column:
            packets, manifests, trial_keys.blocks = seal_upstream(
                keys, sequences, list(range(n)), signals, payloads,
                (trial_keys.keys, trial_keys.nonces))
        assert column.calls == [7 * n]
        poly_keys = trial_keys.poly_keys(channel_id, keys)
        assert np.shares_memory(poly_keys, trial_keys.blocks)

        # The per-item functions, a member at a time.
        expected, one_keys = [], []
        with _Kernel() as per_item:
            for slot, (key, sequence, signal) in enumerate(members):
                client = HerdClient("c", "zone-EU", rng=random.Random(1))
                client.session_key = key
                client.signal_pending = signal
                attachment = ChannelAttachment("sp", channel_id, slot,
                                               sequence)
                expected.append(client.upstream_packet(
                    attachment, payloads.get(slot)))
                assert attachment.sequence == sequence + 1
                one = TrialKeys(round_index,
                                [(channel_id, key_words([key.key]))])
                one.draw()
                one_keys.append(one.poly_keys(channel_id,
                                              key_words([key.key])))
        assert sum(per_item.calls) == sum(column.calls)
        assert len(per_item.calls) == 2 * n
        assert list(zip(packets, manifests)) == expected
        assert poly_keys.tobytes() == b"".join(k.tobytes()
                                               for k in one_keys)

        # The mix's decodes: a column call, and one a manifest.
        data = np.frombuffer(b"".join(manifests), dtype=np.uint32)
        ids, decoded, signal_bits = open_manifests(
            data, keys, np.arange(n), sequences)
        per_manifest = [decode_manifest(manifest, key, slot, sequence)
                        for slot, (manifest, (key, sequence, _)) in
                        enumerate(zip(manifests, members))]
        assert [(m.client_id, m.sequence, m.signal)
                for m in per_manifest] == list(zip(
                    ids.tolist(), decoded.tolist(), signal_bits.tolist()))
        assert decoded.tolist() == sequences
        assert signal_bits.tolist() == signals

        # The peel: the round's chaff and keystream cancel, and what
        # is left is the payload — as the per-item predictor says.
        predictor = ChaffPredictor({slot: key for slot, (key, _, _)
                                    in enumerate(members)})
        active = next(iter(payloads), None)
        entries = list(zip(range(n), sequences, signals))
        sender, payload, signalers = decode_rounds(
            [(xor_bytes(*packets), entries, active)], predictor)[0]
        assert signalers == [slot for slot in range(n) if signals[slot]]
        idle = [predictor.predict(slot, sequences[slot])
                for slot in range(n) if slot != active]
        if active is None:
            assert sender is None and xor_bytes(*packets, *idle) == \
                bytes(len(packets[0]))
        else:
            assert (sender, payload) == (
                active, payloads[active].ljust(CODED_PAYLOAD, b"\x00"))
            assert xor_bytes(*packets, *idle) == packets[active]

        # The opens: every member tries an addressed packet and chaff.
        to = len(members) // 2
        voice = make_downstream_packet(members[to][0], channel_id,
                                       round_index, KIND_VOIP, b"cell")
        chaff = make_downstream_chaff(random.Random(round_index))
        for packet in (voice, chaff):
            opened = open_downstream_packets(
                round_index, [(channel_id, packet, n)], keys, poly_keys)
            assert [opened.get(slot) for slot in range(n)] == [
                open_downstream_packet(key, channel_id, round_index,
                                       packet) for key, _, _ in members]
        assert open_downstream_packets(
            round_index, [(channel_id, voice, n)], keys, poly_keys) == \
            {to: (KIND_VOIP, b"cell")}


def _zone(execution, **kwargs):
    sizes = dict(n_clients=8, n_channels=2, n_sps=1, k=2, seed=6)
    sizes.update(kwargs)
    return LiveZone(execution=execution, **sizes)


class TestTwoKeyColumns:
    """The clients seal and trial-decrypt under their own key, the mix
    decodes and peels under its copy: were one column serving both
    parties, a member whose copies differ would go unnoticed on the
    column path."""

    @pytest.mark.parametrize("execution", ENGINES)
    def test_a_member_keyed_apart_from_the_mix_fails_the_round(
            self, execution):
        zone = _zone(execution)
        client = zone.clients["client-3"].client
        assert client.session_key == zone.mix.client_keys["client-3"]
        client.session_key = SessionKey.generate(random.Random(99))
        with pytest.raises(ValueError, match="misbehaving SP or client"):
            zone.step()

    @pytest.mark.parametrize("execution", ENGINES)
    def test_a_flipped_bit_of_an_xor_packet_fails_the_round(
            self, execution, monkeypatch):
        zone = _zone(execution)
        zone.run(2)
        combine = SuperPeer.combine_upstream

        def flip(self, channel_id, *args):
            up = combine(self, channel_id, *args)
            if channel_id != 1:
                return up
            forged = bytearray(up.xor_packet)
            forged[100] ^= 0x04
            return dataclasses.replace(up, xor_packet=bytes(forged))
        monkeypatch.setattr(SuperPeer, "combine_upstream", flip)
        with pytest.raises(ValueError, match="residue nonzero"):
            zone.step()


class TestTheMixOwnsTheSequence:
    """The mix expects each member's next sequence from its own
    ``Channel`` — 0 at attach, one past each decoded manifest — never
    from the client's counter."""

    @pytest.mark.parametrize("execution", ENGINES)
    def test_expected_follows_a_jump_and_the_2_25_wrap(self, execution):
        zone = _zone(execution)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        assert zone.state_of("client-0") is CallState.IN_CALL
        call = zone.manager.calls[zone.clients["client-0"].numeric_id]
        channel = zone.mix.channels[call.channel_id]
        attachment = next(a for a in zone.clients["client-0"]
                          .client.attachments
                          if a.channel_id == call.channel_id)
        assert channel.next_sequences[attachment.slot] == 4
        heard = zone.received_by("client-1")

        def talk(sent):
            zone.say("client-0", sent)
            zone.step()
            assert heard[-1][:len(sent)] == sent

        # A member's counter jumps by 1000: the mix's expected value
        # follows the decoded manifest, and the round still cancels —
        # the call's cell comes out of the XOR.
        attachment.sequence += 1000
        talk(b"after the jump")
        assert channel.next_sequences[attachment.slot] == 1005
        # Across the manifest's 2^25 wrap.
        attachment.sequence = 2 ** 25 - 1
        talk(b"before the wrap")
        assert channel.next_sequences[attachment.slot] == 2 ** 25
        talk(b"after the wrap")
        assert channel.next_sequences[attachment.slot] == 2 ** 25 + 1
        # Every other member is where its own counter is.
        for roster in zone._rosters.values():
            mix_channel = zone.mix.channels[
                roster.attachments[0].channel_id]
            assert mix_channel.next_sequences == [
                a.sequence for a in roster.attachments]

    def test_attach_starts_the_count_at_zero(self):
        zone = _zone("batch-v2")
        zone.run(3)
        joiner = zone._add_client("late-0", 2).client
        for a in joiner.attachments:
            assert zone.mix.channels[a.channel_id].next_sequences[
                a.slot] == 0
        zone.run(2)
        for a in joiner.attachments:
            assert zone.mix.channels[a.channel_id].next_sequences[
                a.slot] == a.sequence == 2


class TestOneRosterCheckARound:
    @pytest.mark.parametrize("execution", ENGINES)
    def test_each_roster_is_checked_once_a_round(self, execution,
                                                 monkeypatch):
        zone = _zone(execution, n_clients=12, n_channels=4, n_sps=2)
        zone.start_call("client-0", "client-1")
        zone.run(3)
        checks = []
        is_current = ChannelRoster.is_current

        def counted(self):
            checks.append(self)
            return is_current(self)
        monkeypatch.setattr(ChannelRoster, "is_current", counted)
        zone.say("client-0", b"hello")
        zone.step()
        assert len(checks) == len(set(map(id, checks))) == 4
