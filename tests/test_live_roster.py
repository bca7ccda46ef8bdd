"""Standing round rosters (DESIGN.md §15).

``LiveZone`` keeps, per channel, the slot-ordered roster a round
reads its members from — client, attachment, call agent, numeric id,
key — and rebuilds it when the channel's membership has changed, which
it learns from the membership state itself (``SuperPeer
.membership_epoch``, ``HerdClient.attachment_epoch``), never from a
caller.  This file pins that:

* a script that changes membership behind the zone's back — a client
  added after rounds have run, an overload window, an SP failing
  during a call, ``churn.recover_superpeer`` and a join after it —
  gives the same adversary observations, voice and per-attachment
  sequence numbers on ``event`` and ``batch-v2``, and stops working
  the moment a stale roster is served;
* a roster is built once for as long as membership stands;
* a member without an attachment is a typed error on both engines;
* ``plan_upstream`` packs the manifest ``plan_manifest`` packs;
* a ``zone-steady``-shaped round is five ``_keystream_blocks`` calls;
* ``decode_rounds`` in one kernel call equals the per-item
  composition, and refuses a bad round before the kernel runs;
* ``LinkObserver.record_round_runs`` records what the per-link
  ``record_runs`` regroup records.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.crypto.chacha20 as chacha20
from repro.core.callmanager import CallState
from repro.core.channel import ChannelManifest, plan_manifest
from repro.core.client import ChannelAttachment, HerdClient
from repro.core.signaling import MissingTrialKey
from repro.core.network_coding import (
    CODED_PACKET_SIZE,
    ChaffPredictor,
    decode_rounds,
    decrypt_packet,
    make_chaff_packet,
    make_payload_packet,
)
from repro.crypto.chacha20 import xor_bytes
from repro.crypto.keys import SessionKey
from repro.netsim.observer import LinkObserver
from repro.netsim.taps import offer_round_runs
from repro.simulation.churn import recover_superpeer
from repro.simulation.live import ChannelRoster, LiveZone

DEAD_SP = "zone-EU/sp-1"


def _occupancy(zone):
    return {channel_id: len(sp.channel_clients[channel_id])
            for channel_id, sp in sorted(zone._sp_of_channel.items())}


def _talk(zone, rounds, tag):
    """``rounds`` rounds with both parties of the call talking."""
    for i in range(rounds):
        for client_id in ("client-0", "client-1"):
            if zone.state_of(client_id) is CallState.IN_CALL:
                zone.say(client_id,
                         f"{tag}-{i}-{client_id}".encode())
        zone.step()


class _AgentEvents:
    """A ``LiveZone.obs`` that keeps what every agent did, round by
    round."""

    def __init__(self, zone):
        self.zone = zone
        self.events = []

    def client_event(self, client_id, event):
        self.events.append((self.zone.round_index, client_id, event))

    def call_started(self, *_):
        pass

    call_ended = round_finished = call_started


def _churn_script(execution):
    """A run whose membership changes five times.  Returns what must
    not depend on the engine, and the zone."""
    zone = LiveZone(n_clients=9, n_channels=4, n_sps=2, k=2, seed=2,
                    execution=execution)
    zone.obs = _AgentEvents(zone)
    fabric = zone.attach_wire()
    # sp-1's channels are the fuller ones, so the joins below land on
    # sp-0's — which survive — whatever the rng draws.
    assert _occupancy(zone) == {0: 4, 1: 5, 2: 4, 3: 5}
    zone.start_call("client-0", "client-1")
    _talk(zone, 6, "steady")
    dead_channels = set(zone.sps[1].channel_clients)
    assert any(call.channel_id in dead_channels
               for call in zone.manager.calls.values())

    # 1. a client joins a zone that has been running
    zone._add_client("late-0", 1)
    _talk(zone, 4, "joined")

    # 2. an overload window opens, and closes on a backlog
    zone.set_overload(0.1)
    _talk(zone, 4, "overload")
    zone.clear_overload()
    zone.run(5)
    _talk(zone, 4, "drained")

    # 3. an SP dies under a call
    sp = zone.sps[1]
    assert sp.sp_id == DEAD_SP
    records = zone.fail_superpeer(DEAD_SP)
    assert records and all(r.survived for r in records)
    _talk(zone, 6, "failover")

    # 4. it comes back empty, and 5. a client joins after that
    recover_superpeer(zone.bed, sp)
    zone._add_client("late-1", 1)
    _talk(zone, 6, "rejoined")

    fabric.finalize()
    sequences = {
        (client_id, a.channel_id): a.sequence
        for client_id, live in sorted(zone.clients.items())
        for a in live.client.attachments}
    voice = {client_id: zone.received_by(client_id)
             for client_id in ("client-0", "client-1")}
    return (fabric.observer.observations, voice, sequences,
            zone.cells_deferred), zone


class TestChurnEquivalence:
    def test_event_and_batch_v2_agree_across_membership_changes(self):
        (obs_event, voice_event, seq_event, shed_event), zone = \
            _churn_script("event")
        (obs_v2, voice_v2, seq_v2, shed_v2), _ = \
            _churn_script("batch-v2")
        assert len(obs_event) and obs_event == obs_v2
        assert voice_event == voice_v2
        assert seq_event == seq_v2
        assert shed_event == shed_v2 == 8
        # Voice crossed every membership change, both ways.
        for listener, talker in (("client-0", "client-1"),
                                 ("client-1", "client-0")):
            heard = b"".join(voice_v2[listener])
            for tag in ("steady", "joined", "overload", "drained",
                        "failover", "rejoined"):
                assert f"{tag}-3-{talker}".encode() in heard
        # Every attachment sent once a round since it was made: the
        # founders' for all 35 rounds, the joiners' since they joined.
        assert zone.round_index == 35
        assert set(seq_v2.values()) == {35, 29, 6}
        assert [n for (client_id, _), n in seq_v2.items()
                if client_id.startswith("late")] == [29, 6]

    def test_the_script_catches_a_stale_roster(self, monkeypatch):
        """Were a roster served after its membership changed, the
        script above would not get through."""
        monkeypatch.setattr(ChannelRoster, "is_current",
                            lambda self: True)
        with pytest.raises(ValueError, match="expected 5 packets"):
            _churn_script("batch-v2")


class TestTrialKeysDrawnAtRoundStart:
    """``batch-v2`` draws every member's trial key block when the round
    starts, for the channels ``MixCallManager.downstream_channels``
    lists; ``event`` draws each as its trial comes."""

    def test_agents_agree_across_failure_and_joins(self):
        """The churn script's agent events — on top of the links'
        cells and the voice its equivalence test compares — through
        an SP failure (disabled channels) and joins (rebuilt
        rosters)."""
        _, event_zone = _churn_script("event")
        _, zone = _churn_script("batch-v2")
        events = zone.obs.events
        assert event_zone.obs.events == events
        assert {event for _, _, event in events} == \
            {"granted", "ringing", "voice"}
        # The failover's re-GRANT reached the moved leg.
        assert [event for _, _, event in events].count("granted") >= 2
        # The failed SP's channels were left out of the later rounds'
        # trials, on the mix's side and the clients'.
        assert zone.manager.disabled_channels
        assert not set(zone.manager.downstream_channels()) \
            & zone.manager.disabled_channels

    def test_a_trial_the_round_did_not_plan_is_a_typed_error(self):
        """Had the clients keyed other channels than the mix fills,
        the round stops — no late draw covers for it."""
        zone = LiveZone(n_clients=6, n_channels=3, n_sps=1, k=2, seed=4,
                        execution="batch-v2")
        zone.run(2)
        filled = zone.manager.downstream_channels
        asked = []

        def first_plan_drops_channel_0():
            asked.append(True)
            return filled()[1:] if len(asked) == 1 else filled()
        zone.manager.downstream_channels = first_plan_drops_channel_0
        with pytest.raises(MissingTrialKey, match="channel 0"):
            zone.step()


class TestRosterLifetime:
    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_built_once_while_membership_stands(self, execution):
        zone = LiveZone(n_clients=8, n_channels=4, n_sps=2, k=2,
                        seed=5, execution=execution)
        zone.start_call("client-0", "client-1")
        _talk(zone, 3, "warm")
        before = dict(zone._rosters)
        assert sorted(before) == [0, 1, 2, 3]
        _talk(zone, 50, "steady")
        assert all(zone._rosters[ch] is roster
                   for ch, roster in before.items())
        # ...and rebuilt by a join, on the channels it touches.
        joiner = zone._add_client("late-0", 2).client
        zone.step()
        touched = {a.channel_id for a in joiner.attachments}
        assert len(touched) == 2
        for channel_id in touched:
            assert zone._rosters[channel_id] is not before[channel_id]
            assert zone._rosters[channel_id].members[-1] == "late-0"

    def test_roster_is_slot_ordered_and_complete(self):
        zone = LiveZone(n_clients=7, n_channels=3, n_sps=1, k=2, seed=3)
        zone.step()
        for channel_id, sp in zone._sp_of_channel.items():
            roster = zone._rosters[channel_id]
            assert list(roster.members) == \
                sp.channel_clients[channel_id]
            for slot, (client_id, entry) in enumerate(
                    zip(roster.members, roster.entries)):
                live = zone.clients[client_id]
                assert entry.live is live
                assert entry.agent is live.agent
                assert entry.attachment in live.client.attachments
                assert entry.attachment.channel_id == channel_id
                assert entry.attachment.slot == slot
                assert entry.numeric_id == live.numeric_id
                assert entry.key is zone.mix.client_keys[client_id]
            assert roster.numerics == [e.numeric_id
                                       for e in roster.entries]

    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_member_without_attachment_is_a_typed_error(self,
                                                        execution):
        zone = LiveZone(n_clients=6, n_channels=2, n_sps=1, k=2,
                        seed=4, execution=execution)
        zone.run(3)
        # The SP still lists a client that left.
        zone.clients["client-3"].client.leave()
        with pytest.raises(RuntimeError) as error:
            zone.step()
        assert "client-3" in str(error.value)
        assert "channel 0" in str(error.value)

    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_detached_member_is_a_typed_error(self, execution):
        zone = LiveZone(n_clients=6, n_channels=2, n_sps=1, k=2,
                        seed=4, execution=execution)
        zone.run(2)
        zone.clients["client-2"].client.detach_channels({1})
        with pytest.raises(RuntimeError,
                           match="client-2 .* channel 1 .* attachment"):
            zone.step()


def _joined_client(seed=7):
    client = HerdClient("c", "zone-EU", rng=random.Random(seed))
    client.session_key = SessionKey.generate(random.Random(seed))
    return client


class TestPlanUpstreamManifest:
    @settings(max_examples=200, deadline=None)
    @given(slot=st.integers(0, 63), signal=st.booleans(),
           sequence=st.integers(0, 2 ** 40))
    def test_word_equals_plan_manifest(self, slot, signal, sequence):
        client = _joined_client()
        client.signal_pending = signal
        attachment = ChannelAttachment("sp", 0, slot, sequence)
        _, manifest = client.plan_upstream(attachment)
        assert manifest == plan_manifest(
            ChannelManifest(slot, sequence, signal),
            client.session_key, slot)
        assert attachment.sequence == sequence + 1

    @pytest.mark.parametrize("slot, sequence", [(64, 0), (-1, 0),
                                                (0, -1)])
    def test_out_of_range_fields_still_raise(self, slot, sequence):
        attachment = ChannelAttachment("sp", 0, slot, sequence)
        with pytest.raises(ValueError, match="6 bits|non-negative"):
            _joined_client().plan_upstream(attachment)
        # Nothing was sent, so nothing was counted.
        assert attachment.sequence == sequence

    def test_unjoined_client_still_refused(self):
        client = HerdClient("c", "zone-EU", rng=random.Random(1))
        with pytest.raises(RuntimeError, match="not joined"):
            client.plan_upstream(ChannelAttachment("sp", 0, 0))


class _KernelSpy:
    """Counts ``_keystream_blocks`` calls and their block totals."""

    def __init__(self, monkeypatch):
        self.blocks = []
        kernel = chacha20._keystream_blocks

        def spy(keys, nonces, counts, counter):
            self.blocks.append(sum(counts))
            return kernel(keys, nonces, counts, counter)
        monkeypatch.setattr(chacha20, "_keystream_blocks", spy)


class TestKernelCallsPerRound:
    def test_a_zone_steady_round_is_five_calls(self, monkeypatch):
        """100 clients / 16 channels / 4 calls, as ``herdbench``'s
        ``zone-steady``: packets + manifests sealed beside the key
        block of every member's downstream trial, manifests opened,
        chaff + active keystreams peeled, the downstream round sealed
        and the eight hits opened."""
        zone = LiveZone(n_clients=100, n_channels=16, n_sps=4, k=2,
                        seed=1, execution="batch-v2")
        zone.attach_wire()
        pairs = [(f"client-{2 * i}", f"client-{2 * i + 1}")
                 for i in range(4)]
        for caller, callee in pairs:
            zone.start_call(caller, callee)
        parties = [c for pair in pairs for c in pair]
        zone.run(4)
        assert all(zone.state_of(c) is CallState.IN_CALL
                   for c in parties)
        for client_id in parties:
            zone.say(client_id, b"v" * 160)
        spy = _KernelSpy(monkeypatch)
        zone.step()
        assert spy.blocks == [1400, 200, 1000, 48, 40]
        assert all(len(zone.received_by(c)) == 1 for c in parties)


def _keys(n, seed=11):
    rng = random.Random(seed)
    return {client: SessionKey.generate(rng) for client in range(n)}


def _per_item_decode(xor_packet, entries, active, predictor, keys):
    """``decode_round`` as PR 21 composed it: one prediction per idle
    client, one ``decrypt_packet`` for the active one."""
    residue = xor_bytes(xor_packet, *[
        predictor.predict(client, seq)
        for client, seq, _ in entries if client != active])
    signalers = [client for client, _, signal in entries if signal]
    if active is None:
        if any(residue):
            raise ValueError("residue nonzero")
        return None, b"", signalers
    active_seq = [seq for client, seq, _ in entries
                  if client == active][-1]
    is_payload, payload = decrypt_packet(keys[active], active_seq,
                                         residue)
    return (active, payload, signalers) if is_payload \
        else (None, b"", signalers)


class TestDecodeRoundsOneCall:
    def setup_method(self):
        self.keys = _keys(6)
        self.predictor = ChaffPredictor(self.keys)

    def _round(self, seq, active=None, payload=None, signal=()):
        packets, entries = [], []
        for client, key in self.keys.items():
            if client == active and payload is not None:
                packets.append(make_payload_packet(key, seq + client,
                                                   payload))
            else:
                packets.append(make_chaff_packet(key, seq + client))
            entries.append((client, seq + client, client in signal))
        return xor_bytes(*packets), entries, active

    def test_equals_the_per_item_composition(self, monkeypatch):
        rounds = [
            self._round(10),                                # idle only
            self._round(20, signal={1, 4}),
            self._round(30, active=2),                      # active, chaff
            self._round(40, active=5, payload=b"voice" * 30),
            self._round(2 ** 33, active=0, payload=bytes(range(256)),
                        signal={3}),
        ]
        expected = [_per_item_decode(*r, self.predictor, self.keys)
                    for r in rounds]
        spy = _KernelSpy(monkeypatch)
        assert decode_rounds(rounds, self.predictor) == expected
        assert spy.blocks == [5 * 6 * len(rounds)]
        assert [sender for sender, _, _ in expected] == \
            [None, None, None, 5, 0]
        assert expected[3][1] == (b"voice" * 30).ljust(292, b"\x00")

    def test_wrong_sequence_and_wrong_type_still_refused(self):
        xor_packet, entries, active = self._round(
            50, active=1, payload=b"x")
        shifted = [(c, s + 1 if c == active else s, sig)
                   for c, s, sig in entries]
        with pytest.raises(ValueError, match="sequence mismatch"):
            decode_rounds([(xor_packet, shifted, active)],
                          self.predictor)
        with pytest.raises(ValueError, match="sequence mismatch"):
            _per_item_decode(xor_packet, shifted, active,
                             self.predictor, self.keys)
        # Flip the type byte of the active client's cleartext to 0x02.
        forged = xor_bytes(xor_packet,
                           b"\x03" + bytes(CODED_PACKET_SIZE - 1))
        with pytest.raises(ValueError, match="unknown packet type 2"):
            decode_rounds([(forged, entries, active)], self.predictor)
        with pytest.raises(ValueError, match="unknown packet type 2"):
            _per_item_decode(forged, entries, active, self.predictor,
                             self.keys)
        # A residue with nobody on a call is still the audit signal.
        with pytest.raises(ValueError, match="misbehaving SP"):
            decode_rounds([(forged, entries, None)], self.predictor)

    def test_bad_round_refused_before_the_kernel(self, monkeypatch):
        good = self._round(60)
        xor_packet, entries, _ = self._round(70)
        spy = _KernelSpy(monkeypatch)
        with pytest.raises(ValueError, match="active client missing"):
            decode_rounds([good, (xor_packet, entries, 99)],
                          self.predictor)
        with pytest.raises(ValueError, match="wrong size"):
            decode_rounds([good, (xor_packet[:-1], entries, None)],
                          self.predictor)
        with pytest.raises(KeyError, match="no session key"):
            decode_rounds([good, (xor_packet, entries + [(99, 0, False)],
                                  None)], self.predictor)
        with pytest.raises(KeyError, match="no session key"):
            decode_rounds([good, (xor_packet, entries + [(99, 0, False)],
                                  99)], self.predictor)
        assert spy.blocks == []

    def test_process_round_stays_all_or_nothing(self):
        zone = LiveZone(n_clients=6, n_channels=2, k=2, seed=13,
                        execution="batch-v2")
        zone.run(2)
        numeric = zone.clients["client-0"].numeric_id
        zone.manager.handle_signal(numeric)
        call = zone.manager.calls[numeric]
        other = 1 - call.channel_id
        upstream = {}
        for channel_id, sp in sorted(zone._sp_of_channel.items()):
            roster = zone._roster(channel_id)
            entries = [(e.numeric_id, 0, e.numeric_id != numeric)
                       for e in roster.entries]
            if channel_id == call.channel_id:
                # The call's client is not in its channel's manifests.
                entries = [e for e in entries if e[0] != numeric]
            upstream[channel_id] = (channel_id,
                                    bytes(CODED_PACKET_SIZE), entries)
        with pytest.raises(ValueError, match="active client missing"):
            zone.manager.process_round(
                zone.round_index, [upstream[other],
                                   upstream[call.channel_id]])
        # The honest channel's signals were not acted on either.
        assert list(zone.manager.calls) == [numeric]


#: Sequences on both sides of the header's ninth byte (``seq >> 56``).
_SEQUENCES = st.one_of(st.integers(0, 2 ** 16),
                       st.integers(2 ** 56, 2 ** 64 - 1))


@st.composite
def _round_specs(draw, max_rounds=6):
    """Rounds as ``(senders, active, payload)``: ``senders`` a list of
    ``(client, sequence, signal)`` over clients 0-5 — possibly empty —
    ``active`` one of them or None, ``payload`` what it sends (None:
    chaff)."""
    specs = []
    for _ in range(draw(st.integers(1, max_rounds))):
        clients = draw(st.lists(st.integers(0, 5), unique=True,
                                max_size=6))
        senders = [(client, draw(_SEQUENCES), draw(st.booleans()))
                   for client in clients]
        active = draw(st.one_of(st.none(), st.sampled_from(clients))) \
            if clients else None
        payload = draw(st.one_of(st.none(), st.binary(max_size=292)))
        specs.append((senders, active, payload))
    return specs


def _coded_round(keys, senders, active, payload):
    """The (xor_packet, entries, active) an SP forwards for a spec: the
    XOR of nothing is zeros."""
    packets = [make_payload_packet(keys[client], seq, payload)
               if client == active and payload is not None
               else make_chaff_packet(keys[client], seq)
               for client, seq, _ in senders]
    xor_packet = xor_bytes(*packets) if packets \
        else bytes(CODED_PACKET_SIZE)
    return xor_packet, senders, active


#: Empty rounds between non-empty ones, a one-sender round, an
#: active-only round, three active senders in one call.
_EDGE_ROUNDS = [
    ([], None, None),
    ([(0, 7, False)], None, None),
    ([], None, None),
    ([(1, 2 ** 64 - 1, True)], 1, b"solo"),
    ([(2, 5, False), (3, 2 ** 60, True)], 3, None),
    ([], None, None),
    ([(4, 9, True), (5, 9, False), (0, 3, False)], 5, b"x" * 292),
    ([], None, None),
]


class TestPerRoundFold:
    """``ChaffPredictor.peel_rounds`` folds each round's senders into
    one mask; ``decode_rounds`` over it equals the per-item
    composition, in one kernel call."""

    def setup_method(self):
        self.keys = _keys(6, seed=17)
        self.predictor = ChaffPredictor(self.keys)

    @settings(max_examples=60, deadline=None)
    @given(specs=_round_specs())
    @example(specs=_EDGE_ROUNDS)
    def test_equals_the_per_item_decode(self, specs):
        rounds = [_coded_round(self.keys, *spec) for spec in specs]
        expected = [_per_item_decode(*r, self.predictor, self.keys)
                    for r in rounds]
        calls = []
        kernel = chacha20._keystream_blocks

        def spy(keys, nonces, counts, counter):
            calls.append(sum(counts))
            return kernel(keys, nonces, counts, counter)
        chacha20._keystream_blocks = spy
        try:
            assert decode_rounds(rounds, self.predictor) == expected
        finally:
            chacha20._keystream_blocks = kernel
        senders = sum(len(senders) for senders, _, _ in specs)
        assert calls == ([5 * senders] if senders else [])

    def test_masks_of_empty_and_filled_rounds(self):
        masks = self.predictor.peel_rounds(
            [[], [(0, 4, False)], [], [(1, 2, True)], []])
        assert masks[0] == masks[2] == masks[4] == \
            bytes(CODED_PACKET_SIZE)
        assert masks[1] == make_chaff_packet(self.keys[0], 4)
        assert masks[3] == xor_bytes(
            make_chaff_packet(self.keys[1], 2),
            b"\x00" + (2).to_bytes(8, "little")
            + bytes(CODED_PACKET_SIZE - 9))
        assert self.predictor.peel_rounds([]) == []

    @settings(max_examples=40, deadline=None)
    @given(specs=_round_specs(max_rounds=4),
           bad=st.sampled_from(["size", "missing active", "idle no key",
                                "active no key"]),
           at=st.integers(0, 4))
    def test_refusals_come_before_the_kernel(self, specs, bad, at):
        rounds = [_coded_round(self.keys, *spec) for spec in specs]
        xor_packet, entries, _ = _coded_round(
            self.keys, [(0, 1, False), (1, 1, False)], None, None)
        refused, error = {
            "size": ((xor_packet[:-1], entries, None), "wrong size"),
            "missing active": ((xor_packet, entries, 2),
                               "active client missing"),
            "idle no key": ((xor_packet, entries + [(99, 1, False)],
                             None), "no session key"),
            "active no key": ((xor_packet, entries + [(99, 1, False)],
                               99), "no session key"),
        }[bad]
        rounds.insert(min(at, len(rounds)), refused)
        calls = []
        kernel = chacha20._keystream_blocks
        chacha20._keystream_blocks = \
            lambda *args: calls.append(args) or kernel(*args)
        try:
            with pytest.raises((ValueError, KeyError), match=error):
                decode_rounds(rounds, self.predictor)
        finally:
            chacha20._keystream_blocks = kernel
        assert calls == []


class _RunsOnlyTap:
    """A tap at the ``record_runs`` level: ``offer_round_runs``
    regroups the round's table per link for it."""

    def __init__(self):
        self.observer = LinkObserver()
        self.record = self.observer.record
        self.record_runs = self.observer.record_runs


class TestRecordRoundRuns:
    ROUND = ([("a", "sp"), ("b", "sp"), ("sp", "mix"), ("sp", "mix"),
              ("mix", "sp"), ("sp", "a"), ("sp", "b")],
             [329, 329, 329, 64, 345, 345, 345],
             [1, 1, 1, 3, 1, 1, 2])

    def _logs(self, rounds):
        whole, regrouped = LinkObserver(), _RunsOnlyTap()
        for time, table in rounds:
            offer_round_runs(whole, time, *table)
            offer_round_runs(regrouped, time, *table)
        return whole.observations, regrouped.observer.observations

    def test_equal_to_the_record_runs_regroup(self):
        other = (self.ROUND[0][:3], [329, 329, 100], [1, 2, 1])
        whole, regrouped = self._logs(
            [(0.0, self.ROUND), (0.02, self.ROUND), (0.04, other),
             (0.06, self.ROUND)])
        assert len(whole) == len(regrouped) == 3 * 10 + 4
        assert whole == regrouped
        assert list(whole) == list(regrouped)
        assert whole[7:25] == regrouped[7:25]
        assert whole[-1] == regrouped[-1]
        assert whole[3].src == "sp" and whole[3].size == 64
        assert whole[12].time == 0.02

    def test_consecutive_equal_rounds_share_one_shape(self):
        whole, _ = self._logs([(0.02 * i, self.ROUND)
                               for i in range(5)])
        whole._close()
        shapes = [shape for _, shape in whole._bursts]
        assert len(shapes) == 5
        assert all(shape is shapes[0] for shape in shapes)

    def test_a_live_zone_feeds_it(self, monkeypatch):
        """``batch-v2`` hands the observer the round whole; the stream
        equals the per-cell engine's."""
        calls = []
        record_round_runs = LinkObserver.record_round_runs

        def spy(self, time, keys, sizes, counts):
            calls.append(len(keys))
            record_round_runs(self, time, keys, sizes, counts)
        monkeypatch.setattr(LinkObserver, "record_round_runs", spy)

        def run(execution):
            zone = LiveZone(n_clients=6, n_channels=2, k=2, seed=8,
                            execution=execution)
            fabric = zone.attach_wire()
            zone.run(4)
            return fabric.observer.observations
        v2 = run("batch-v2")
        # 6 clients x 2 channels, up and down, + 2 XORs + 2 rounds.
        assert calls == [28] * 4
        assert v2 == run("event")
