"""Two kernel calls a round: each role draws ahead (DESIGN.md §15
"Two calls a round").

What the mix and the in-call clients encrypt in a steady round is
keyed by values known when it starts, so the clients draw their call
legs' downstream bodies beside their upstream packets, and the mix
draws its manifest blocks, peel rows and downstream seals in one call.
A row the round needs besides is a miss, drawn in one further call for
exactly the missing rows.  This file pins:

* a round with nothing to seal makes no zero-block kernel call, on any
  engine;
* every miss path — a resynced sequence, the call-setup rounds, an SP
  failover's re-grant — gives the ``event`` engine's deliveries,
  sequences and wire observations, and costs one further call for each
  role that misses, carrying only the missing rows' blocks;
* drawing ahead hides no tampering: through ``zone.step()`` a flipped
  XOR bit and a wrong sequence raise the ``ValueError`` of the direct
  ``process_round`` cases, and no channel of the round is applied, on
  every engine.
"""

import dataclasses
import random

import pytest

import repro.crypto.chacha20 as chacha20
from repro.core.callmanager import CallState
from repro.core.channel import ChannelManifest, encode_manifest
from repro.core.signaling import (
    KIND_VOIP,
    TrialKeys,
    make_downstream_packet,
    make_downstream_packets,
    open_downstream_packets,
)
from repro.crypto.chacha20 import (
    aead_seal_many,
    chacha20_encrypt_many,
    key_words,
)
from repro.crypto.keys import SessionKey
from repro.simulation.live import LiveZone

ENGINES = ["event", "batch-v2"]
BATCH_ENGINES = ["batch-v2"]


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


def _zone(execution, **sizes):
    params = dict(n_clients=12, n_channels=4, n_sps=2, k=2, seed=5)
    params.update(sizes)
    zone = LiveZone(execution=execution, **params)
    zone.attach_wire()
    return zone


def _steps(zone, rounds):
    """Step the zone, the kernel calls of each round."""
    per_round = []
    for _ in range(rounds):
        with _Kernel() as kernel:
            zone.step()
        per_round.append(kernel.calls)
    return per_round


def _outcome(zone):
    """What every engine must agree on: deliveries, the mix's
    expected sequences and the wire."""
    return ({client_id: zone.received_by(client_id)
             for client_id in zone.clients},
            {channel_id: list(channel.next_sequences)
             for channel_id, channel in zone.mix.channels.items()},
            zone.wire.observer.observations)


def _attachments(zone):
    return sum(len(roster.entries)
               for roster in zone._rosters_of_round().values())


def _in_call(execution, **sizes):
    """A zone whose client-0 / client-1 call is up, and its call-setup
    rounds' kernel calls."""
    zone = _zone(execution, **sizes)
    zone.start_call("client-0", "client-1")
    setup = _steps(zone, 3)
    assert zone.state_of("client-0") is CallState.IN_CALL
    assert zone.state_of("client-1") is CallState.IN_CALL
    return zone, setup


def _talk(zone, tag):
    zone.say("client-0", b"%s-0" % tag)
    zone.say("client-1", b"%s-1" % tag)


class TestNoZeroBlockCall:
    @pytest.mark.parametrize("execution", ENGINES)
    def test_idle_rounds_and_a_call(self, execution):
        zone = LiveZone(n_clients=12, seed=3, execution=execution)
        with _Kernel() as kernel:
            zone.run(5)
            zone.start_call("client-0", "client-1")
            zone.run(4)
        assert zone.state_of("client-1") is CallState.IN_CALL
        assert kernel.calls and 0 not in kernel.calls

    def test_no_items_no_kernel_call(self):
        with _Kernel() as kernel:
            assert aead_seal_many([], [], []) == []
            assert chacha20_encrypt_many([], [], []) == []
            assert make_downstream_packets([]) == []
        assert kernel.calls == []


def _members(n, seed=4):
    rng = random.Random(seed)
    keys = [SessionKey.generate(rng) for _ in range(n)]
    return keys, key_words([key.key for key in keys])


class TestDrawnBodies:
    """A trial hit decrypts over the body drawn ahead for its row; a
    hit without one is drawn in one call of its own."""

    def _open(self, bodies_for):
        keys, words = _members(4)
        packet = make_downstream_packet(keys[2], 3, 17, KIND_VOIP,
                                        b"voice")
        trial_keys = TrialKeys(17, [(3, words)], bodies_for)
        trial_keys.draw()
        with _Kernel() as kernel:
            opened = open_downstream_packets(
                17, [(3, packet, 4)], words,
                trial_keys.poly_keys(3, words),
                trial_keys.bodies({3: 0}))
        assert opened == {2: (KIND_VOIP, b"voice")}
        return kernel.calls

    def test_drawn_ahead(self):
        assert self._open([(3, 2)]) == []

    def test_unexpected_hit(self):
        assert self._open([(3, 0)]) == [5]

    def test_nothing_drawn(self):
        assert self._open([]) == [5]

    def test_a_body_of_an_unplanned_channel_is_not_drawn(self):
        _, words = _members(2)
        trial_keys = TrialKeys(1, [(0, words)], [(5, 0), (0, 1)])
        assert list(trial_keys.request[2]) == [1, 1, 5]
        trial_keys.draw()
        assert list(trial_keys.bodies({0: 0})) == [1]


class TestMissPaths:
    """Each miss equals ``event``; one further call for each role that
    misses, with only the missing rows' blocks."""

    @staticmethod
    def _steady(zone, legs):
        """The two calls of a round with ``legs`` call legs up."""
        n = _attachments(zone)
        return [5 * n + n + n + 5 * legs, n + 5 * n + 6 * legs]

    @pytest.mark.parametrize("execution", BATCH_ENGINES)
    def test_call_setup_rounds(self, execution):
        zone, setup = _in_call(execution)
        base = self._steady(zone, 0)
        # GRANT: fresh at the mix (6 blocks) and a hit the caller did
        # not expect (5).  INCOMING: the same for the callee, beside
        # the caller's leg drawn ahead.
        assert setup[0] == base + [6, 5]
        assert setup[1] == self._steady(zone, 1) + [6, 5]
        assert setup[2] == self._steady(zone, 2)
        event, _ = _in_call("event")
        assert _outcome(zone) == _outcome(event)

    def _resync(self, execution):
        zone, _ = _in_call(execution)
        _talk(zone, b"before")
        zone.step()
        caller = zone.clients["client-0"]
        active = caller.agent.active_channel
        # The caller's attachment on its call's channel, and an idle
        # member's: both jump three packets ahead (§3.6.1 "lost or
        # delayed packets").
        jumped = [next(a for a in caller.client.attachments
                       if a.channel_id == active),
                  zone.clients["client-7"].client.attachments[0]]
        for attachment in jumped:
            attachment.sequence += 3
        _talk(zone, b"after")
        calls = _steps(zone, 2)
        _talk(zone, b"later")
        zone.run(2)
        return zone, calls

    @pytest.mark.parametrize("execution", BATCH_ENGINES)
    def test_resynced_sequence(self, execution):
        zone, calls = self._resync(execution)
        steady = self._steady(zone, 2)
        # Two peel rows redrawn at the sequences the manifests carry;
        # the next round expects them.
        assert calls == [steady + [10], steady]
        event, _ = self._resync("event")
        assert _outcome(zone) == _outcome(event)
        assert zone.received_by("client-1")[-2][:7] == b"after-0"

    def _failover(self, execution):
        zone, _ = _in_call(execution, n_clients=16, n_channels=6,
                           n_sps=3)
        _talk(zone, b"before")
        zone.step()
        dead = zone._sp_of_channel[
            zone.clients["client-0"].agent.active_channel]
        records = zone.fail_superpeer(dead.sp_id)
        assert records and all(record.survived for record in records)
        calls = _steps(zone, 2)
        _talk(zone, b"after")
        zone.run(3)
        return zone, records, calls

    @pytest.mark.parametrize("execution", BATCH_ENGINES)
    def test_failover_regrant(self, execution):
        zone, records, calls = self._failover(execution)
        moved = len(records)
        # The re-GRANT was queued before the round started, so the mix
        # drew it; the moved leg still holds its dead channel, so its
        # hit is the clients' one miss.
        steady = self._steady(zone, 2)
        assert calls[0] == [steady[0] - 5 * moved, steady[1], 5 * moved]
        assert calls[1] == steady
        event, _, _ = self._failover("event")
        assert _outcome(zone) == _outcome(event)
        assert zone.received_by("client-1")[-1][:7] == b"after-0"


@pytest.mark.parametrize("execution", ENGINES)
class TestDrawingAheadHidesNoTampering:
    """§3.6.1's failure signals fire through ``zone.step()`` as they
    do through ``process_round`` (``tests/test_crypto_batching.py``),
    and the round is ingested all or nothing, on every engine."""

    def _tampered_round(self, execution, monkeypatch, tamper):
        zone, _ = _in_call(execution)
        for sp in zone.sps:
            def tampered(channel_id, round_index, packets, manifests,
                         combine=sp.combine_upstream):
                return tamper(zone, combine(channel_id, round_index,
                                            packets, manifests))
            monkeypatch.setattr(sp, "combine_upstream", tampered)
        # Voice the mix would route, and a call it would grant.
        _talk(zone, b"lost")
        zone.start_call("client-4", "client-5")
        calls = dict(zone.manager.calls)
        return zone, calls

    def _assert_nothing_applied(self, zone, calls):
        assert zone.manager.calls == calls
        assert all(not call.downstream for call in calls.values())

    def test_flipped_xor_bit(self, execution, monkeypatch):
        def flip(zone, up):
            if zone.mix.channels[up.channel_id].active_call is not None:
                return up
            flipped = bytes([up.xor_packet[0] ^ 0x80]) + up.xor_packet[1:]
            return dataclasses.replace(up, xor_packet=flipped)
        zone, calls = self._tampered_round(execution, monkeypatch, flip)
        with pytest.raises(ValueError, match="misbehaving SP"):
            zone.step()
        self._assert_nothing_applied(zone, calls)

    def test_wrong_sequence(self, execution, monkeypatch):
        def claim_next(zone, up):
            channel = zone.mix.channels[up.channel_id]
            if channel.active_call is None:
                return up
            slot = channel.active_call
            roster = zone._roster(up.channel_id)
            # The packet went out at sequence - 1; its manifest now
            # claims the sequence after it.
            wrong = encode_manifest(
                ChannelManifest(slot, roster.attachments[slot].sequence,
                                False),
                roster.clients[slot].session_key, slot)
            manifests = list(up.manifests)
            manifests[slot] = wrong
            return dataclasses.replace(up, manifests=tuple(manifests))
        zone, calls = self._tampered_round(execution, monkeypatch,
                                           claim_next)
        with pytest.raises(ValueError, match="sequence mismatch"):
            zone.step()
        self._assert_nothing_applied(zone, calls)
