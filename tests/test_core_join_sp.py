"""Integration tests: join protocol, superpeer rounds, signaling,
blacklisting, and the SP-facing invariants."""

import random
import sys

import pytest

from repro.api import SimConfig, Simulation
from repro.core.allocation import OccupancyIndex
from repro.core.blacklist import SPMonitor
from repro.core.client import HerdClient
from repro.core.channel import decode_manifest
from repro.core.invariants import (
    looks_uniform,
    series_identical,
    sp_state_is_activity_free,
)
from repro.core.join import join_zone
from repro.core.network_coding import CODED_PACKET_SIZE
from repro.core.retry import BackoffPolicy, LoopRetry
from repro.core.signaling import (
    ChannelGrant,
    DOWNSTREAM_PACKET_SIZE,
    IncomingCallAnnouncement,
    KIND_INCOMING,
    KIND_VOIP,
    make_downstream_chaff,
    make_downstream_packet,
    open_downstream_packet,
)
from repro.core.superpeer import SuperPeer
from repro.netsim.engine import EventLoop

from conftest import build_testbed


def _sp_testbed(n_clients=6, n_channels=3, k=2, seed=7):
    """One zone, one mix with channels, one SP hosting them, clients
    joined through the SP path."""
    bed = build_testbed(zone_specs=[("zone-EU", "dc-eu", 1)], seed=seed)
    mix = bed.mixes["zone-EU/mix-0"]
    mix.configure_channels(n_channels)
    sp = SuperPeer("sp-0", mix.mix_id)
    for ch in range(n_channels):
        sp.host_channel(ch, [])
    bed.superpeers["sp-0"] = sp
    clients = []
    for i in range(n_clients):
        client = HerdClient(f"client-{i}", "zone-EU", rng=bed.rng, k=k)
        join_zone(client, bed.directories["zone-EU"], bed.mixes,
                  superpeers=bed.superpeers, rng=bed.rng)
        bed.clients[client.client_id] = client
        clients.append(client)
    return bed, mix, sp, clients


def _retry_join(fn):
    """``fn`` as the engine re-joins a client: a LoopRetry on an event
    loop, here with two attempts.  Returns the finished task."""
    loop = EventLoop(seed=1)
    task = LoopRetry(loop=loop, fn=fn,
                     policy=BackoffPolicy(max_attempts=2),
                     retry_on=(KeyError, RuntimeError, ValueError))
    loop.run()
    return task


class _WrongShare:
    """A mix short-term key that answers the client's DH with a share
    the client cannot derive."""

    def __init__(self, real):
        self.public_bytes = real.public_bytes
        self.public_key = real.public_key

    def exchange(self, peer_public_bytes):
        return b"\x07" * 32


class TestJoinProtocol:
    def test_direct_join_without_sps(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        assert client.joined
        assert client.mix_id in testbed.mixes
        mix = testbed.mixes[client.mix_id]
        assert "alice" in mix.client_keys

    def test_join_key_agreement(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        mix = testbed.mixes[client.mix_id]
        assert mix.client_keys["alice"].key == client.session_key.key

    def test_join_issues_certificate(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        assert client.certificate.zone_id == "zone-EU"
        assert client.certificate.role == "client"
        assert testbed.root.verify_chain(
            client.certificate,
            testbed.directories["zone-EU"].certificate)

    def test_double_join_rejected(self, testbed):
        client = testbed.add_client("alice", "zone-EU")
        with pytest.raises(RuntimeError):
            join_zone(client, testbed.directories["zone-EU"],
                      testbed.mixes)

    def test_wrong_zone_directory_rejected(self, testbed):
        client = HerdClient("alice", "zone-EU", rng=testbed.rng)
        with pytest.raises(ValueError):
            join_zone(client, testbed.directories["zone-NA"],
                      testbed.mixes)

    def test_key_agreement_mismatch_is_a_typed_error(self, testbed):
        """A mix that derives a different key must fail the join with
        an error the retry paths handle — not an ``assert`` that
        ``python -O`` strips."""
        for mix in testbed.mixes.values():
            mix.short_term = _WrongShare(mix.short_term)
        directory = testbed.directories["zone-EU"]
        alice = HerdClient("alice", "zone-EU", rng=testbed.rng)
        with pytest.raises(RuntimeError, match="key agreement mismatch"):
            join_zone(alice, directory, testbed.mixes)
        # Neither side is left holding a key the other does not share.
        assert not alice.joined and alice.mix_id is None
        assert all("alice" not in mix.client_keys
                   for mix in testbed.mixes.values())
        bob = HerdClient("bob", "zone-EU", rng=testbed.rng)
        task = _retry_join(lambda: join_zone(bob, directory, testbed.mixes,
                                             rng=testbed.rng))
        # The retry fails for the same reason, not on "already adopted".
        assert task.attempts == 2 and not task.succeeded
        assert isinstance(task.failure, RuntimeError)
        assert "key agreement mismatch" in str(task.failure)
        assert not bob.joined and bob.mix_id is None

    def test_retried_join_outlasts_a_directory_stall(self, testbed):
        """A join retried on the loop backs off while the directory is
        stalled and lands once the stall clears."""
        directory = testbed.directories["zone-EU"]
        directory.stalled = True
        loop = EventLoop(seed=1)
        loop.schedule(2.0, lambda: setattr(directory, "stalled", False))
        alice = HerdClient("alice", "zone-EU", rng=testbed.rng)
        task = LoopRetry(loop=loop,
                         fn=lambda: join_zone(alice, directory,
                                              testbed.mixes,
                                              rng=testbed.rng),
                         policy=BackoffPolicy(base_delay_s=0.5, jitter=0.0),
                         retry_on=(RuntimeError,))
        loop.run()
        # Attempts at 0, 0.5, 1.5 meet the stall; the one at 3.5 joins.
        assert task.succeeded and task.attempts == 4
        assert task.elapsed_s == 3.5
        assert alice.joined and task.value.mix_id == alice.mix_id

    def test_sp_join_attaches_k_channels(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=4, n_channels=4,
                                            k=2)
        for client in clients:
            assert len(client.attachments) == 2
            channels = {a.channel_id for a in client.attachments}
            assert len(channels) == 2

    def test_sp_join_balances_channels(self):
        _, mix, sp, _ = _sp_testbed(n_clients=6, n_channels=3, k=2)
        occupancy = [ch.member_count() for ch in mix.channels.values()]
        assert max(occupancy) - min(occupancy) <= 1

    def test_mix_and_sp_slots_agree(self):
        bed, mix, sp, clients = _sp_testbed()
        for client in clients:
            for att in client.attachments:
                assert sp.channel_clients[att.channel_id][att.slot] \
                    == client.client_id
                assert mix.client_at_slot(att.channel_id, att.slot) \
                    == client.client_id

    def test_full_zone_refuses_but_the_testbed_opens_channels(self):
        """64 members fill a channel (the manifest's 6-bit id).
        ``join_zone`` refuses the 65th; ``HerdTestbed.add_client``, as
        the zone's administrator, first opens ``k`` channels on the SP
        hosting the fewest."""
        bed, mix, sp, _ = _sp_testbed(n_clients=64, n_channels=2, k=2)
        idle = bed.add_superpeer("sp-1", mix.mix_id, channels=[])
        late = HerdClient("late", "zone-EU", rng=bed.rng, k=2)
        with pytest.raises(ValueError, match="channel is full"):
            join_zone(late, bed.directories["zone-EU"], bed.mixes,
                      superpeers=bed.superpeers, rng=bed.rng)
        client = bed.add_client("client-64", "zone-EU", k=2,
                                via_superpeers=True)
        assert sorted(mix.channels) == [0, 1, 2, 3]
        assert sorted(idle.channel_clients) == [2, 3]
        assert sorted(sp.channel_clients) == [0, 1]
        assert {(a.sp_id, a.channel_id, a.slot)
                for a in client.attachments} \
            == {("sp-1", 2, 0), ("sp-1", 3, 0)}
        # Room for the next one: nothing more is opened.
        bed.add_client("client-65", "zone-EU", k=2, via_superpeers=True)
        assert len(mix.channels) == 4

    def test_refused_join_leaves_nothing_behind(self):
        """Channel 1 is full, channel 0 is not: the join is refused
        before either takes the client, the mix forgets its key, and
        the same client joins where there is room."""
        bed, mix, sp, _ = _sp_testbed(n_clients=0, n_channels=2)
        directory = bed.directories["zone-EU"]
        for i in range(64):
            join_zone(HerdClient(f"filler-{i}", "zone-EU", rng=bed.rng,
                                 k=1),
                      directory, bed.mixes, superpeers=bed.superpeers,
                      channel_choice=[1], rng=bed.rng)

        def held():
            return (sorted(mix.client_keys),
                    {ch: dict(c.members) for ch, c in mix.channels.items()},
                    dict(mix._client_slots), dict(mix.predictor._keys),
                    {ch: list(m) for ch, m in sp.channel_clients.items()},
                    sp.membership_epoch)

        before = held()
        victim = HerdClient("victim", "zone-EU", rng=bed.rng, k=2)
        refusals = [
            ([0, 1], ValueError, "channel is full"),
            ([0, 7], KeyError, "7"),
            ([0, 0], ValueError, "chosen twice"),
        ]
        for choice, error, message in refusals:
            with pytest.raises(error, match=message):
                join_zone(victim, directory, bed.mixes,
                          superpeers=bed.superpeers,
                          channel_choice=choice, rng=bed.rng)
            assert held() == before
            assert not victim.joined and victim.mix_id is None
            assert victim.numeric_id is None and victim.attachments == []
        # A channel no SP hosts, and one whose SP lost count.
        mix.open_channel()
        before = held()
        with pytest.raises(ValueError, match="not hosted by any SP"):
            join_zone(victim, directory, bed.mixes,
                      superpeers=bed.superpeers, channel_choice=[0, 2],
                      rng=bed.rng)
        sp.channel_clients[0].append("ghost")
        with pytest.raises(RuntimeError, match="slot assignment diverged"):
            join_zone(victim, directory, bed.mixes,
                      superpeers=bed.superpeers, channel_choice=[0],
                      rng=bed.rng)
        sp.channel_clients[0].pop()
        assert held() == before and not victim.joined
        # A retried join fails for the reason given, not on
        # "already adopted" ...
        task = _retry_join(lambda: join_zone(
            victim, directory, bed.mixes, superpeers=bed.superpeers,
            channel_choice=[0, 1], rng=bed.rng))
        assert task.attempts == 2 and not task.succeeded
        assert "channel is full" in str(task.failure)
        assert held() == before and not victim.joined
        # ... and the same client joins where there is room; so does
        # the next honest one.
        result = join_zone(victim, directory, bed.mixes,
                           superpeers=bed.superpeers, channel_choice=[0],
                           rng=bed.rng)
        assert result.attachments == [("sp-0", 0, 0)]
        assert mix.client_keys["victim"].key == victim.session_key.key
        assert sp.channel_clients[0] == ["victim"]
        assert mix.client_at_slot(0, 0) == "victim"
        honest = HerdClient("honest", "zone-EU", rng=bed.rng, k=1)
        join_zone(honest, directory, bed.mixes, superpeers=bed.superpeers,
                  channel_choice=[0], rng=bed.rng)
        assert sp.channel_clients[0] == ["victim", "honest"]

    def test_k_above_the_channel_count_is_refused_before_the_keys(self):
        """A client wanting more channels than the mix has is refused
        before any key exchange, with a typed error naming both; the
        mix holds no key for it, and it joins once there is room."""
        bed, mix, sp, _ = _sp_testbed(n_clients=0, n_channels=1)
        directory = bed.directories["zone-EU"]
        wide = HerdClient("wide", "zone-EU", rng=bed.rng, k=2)
        # Twice: a refused client is refused again for the same
        # reason, not as "already joined".
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="k=2 channels but mix .* has 1"):
                join_zone(wide, directory, bed.mixes,
                          superpeers=bed.superpeers, rng=bed.rng)
            assert "wide" not in mix.client_keys
            assert not wide.joined and wide.numeric_id is None
        sp.host_channel(mix.open_channel(), [])
        result = join_zone(wide, directory, bed.mixes,
                           superpeers=bed.superpeers, rng=bed.rng)
        assert sorted(ch for _, ch, _ in result.attachments) == [0, 1]
        assert mix.client_keys["wide"].key == wide.session_key.key

    def test_refused_join_leaves_the_zone_as_it_was(self):
        """A refusal on an already populated zone moves nothing: the
        SP's channel lists, the mix's keys and the joined clients'
        attachments are as before."""
        bed, mix, sp, clients = _sp_testbed(n_clients=3, n_channels=2)
        before = ({ch: list(m) for ch, m in sp.channel_clients.items()},
                  sorted(mix.client_keys),
                  [list(c.attachments) for c in clients])
        wide = HerdClient("wide", "zone-EU", rng=bed.rng, k=3)
        with pytest.raises(ValueError, match="k=3 channels but mix .* has 2"):
            join_zone(wide, bed.directories["zone-EU"], bed.mixes,
                      superpeers=bed.superpeers, rng=bed.rng)
        assert ({ch: list(m) for ch, m in sp.channel_clients.items()},
                sorted(mix.client_keys),
                [list(c.attachments) for c in clients]) == before

    def test_k_equal_to_the_channel_count_attaches_to_every_channel(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=2, n_channels=2)
        for client in clients:
            assert sorted({a.channel_id for a in client.attachments}) \
                == [0, 1]
        assert sorted(sp.channel_clients[0]) == ["client-0", "client-1"]

    def test_live_zone_with_fewer_channels_than_k_is_refused(self):
        with pytest.raises(ValueError, match="k=2 channels but mix .* has 1"):
            Simulation(SimConfig(n_channels=1)).run(rounds=1)

    def test_one_ladder_a_join_from_the_second_on(self, monkeypatch):
        """The ``zone-join`` shape.  The mix's side of the exchange is
        a ladder (every client's ephemeral is new); the client's side
        reads the table the mix's key carries, built by the first
        client to exchange with it."""
        module = sys.modules["repro.crypto.x25519"]
        ladders, tables = [], []
        real_ladder, real_table = module._ladder, module._point_table
        monkeypatch.setattr(
            module, "_ladder",
            lambda k, u: ladders.append(u) or real_ladder(k, u))
        monkeypatch.setattr(
            module, "_point_table",
            lambda point: tables.append(point) or real_table(point))
        bed, mix, sp, _ = _sp_testbed(n_clients=0, n_channels=4)
        for i in range(5):
            before = len(ladders)
            client = bed.add_client(f"joiner-{i}", "zone-EU", k=2,
                                    via_superpeers=True)
            assert len(ladders) - before == 1
            assert mix.client_keys[client.client_id].key \
                == client.session_key.key
        assert len(tables) == 1  # the mix's key, once
        assert mix.short_term.public_key.table


def _rescan_picks(mix, k, rng):
    """The §3.6.3 pick as ``join_zone`` made it before the mix kept an
    :class:`OccupancyIndex`: an occupancy dict over ``mix.channels``,
    rescanned for each of the ``k`` picks.  The oracle of the index."""
    occupancy = {ch_id: ch.member_count()
                 for ch_id, ch in mix.channels.items()}
    channel_choice = []
    for _ in range(k):
        candidates = [c for c in occupancy if c not in channel_choice]
        min_occ = min(occupancy[c] for c in candidates)
        least = [c for c in candidates if occupancy[c] == min_occ]
        pick = rng.choice(least)
        channel_choice.append(pick)
        occupancy[pick] += 1
    return channel_choice


class _CheckedPicks:
    """Every pick ``mix``'s joins make, checked against the rescan on a
    twin of the same rng: the same channels in the same order, the rng
    left in the same state, and the index agreeing with every
    channel's member count."""

    def __init__(self, monkeypatch, mix):
        self.mix = mix
        self.picks = []
        real_pick = OccupancyIndex.pick

        def pick(index, k, rng):
            assert index is mix.occupancy
            self.check_occupancy()
            twin = random.Random(0)
            twin.setstate(rng.getstate())
            expected = _rescan_picks(mix, k, twin)
            chosen = real_pick(index, k, rng)
            assert chosen == expected
            assert rng.getstate() == twin.getstate()
            self.picks.append(chosen)
            return chosen

        monkeypatch.setattr(OccupancyIndex, "pick", pick)

    def check_occupancy(self):
        assert {ch_id: self.mix.occupancy.occupancy(ch_id)
                for ch_id in self.mix.channels} \
            == {ch_id: ch.member_count()
                for ch_id, ch in self.mix.channels.items()}


class TestChannelPicks:
    """``join_zone`` picks its k channels off the mix's
    :class:`OccupancyIndex`; the draws are those of the rescan."""

    @staticmethod
    def _join(bed, client_id, k, channel_choice=None):
        client = HerdClient(client_id, "zone-EU", rng=bed.rng, k=k)
        join_zone(client, bed.directories["zone-EU"], bed.mixes,
                  superpeers=bed.superpeers,
                  channel_choice=channel_choice, rng=bed.rng)
        return client

    def test_full_channels_and_k_equal_to_the_channels(self, monkeypatch):
        bed, mix, _, _ = _sp_testbed(n_clients=0, n_channels=3)
        checked = _CheckedPicks(monkeypatch, mix)
        for i in range(64):  # channel 0 fills up, by choice
            self._join(bed, f"fill-{i}", 1, channel_choice=[0])
        for i in range(64):  # 1 and 2 at the least level, 0 full
            self._join(bed, f"pair-{i}", 2)
        assert [sorted(pick) for pick in checked.picks] == [[1, 2]] * 64
        # every channel full: the pick still draws (the lot is all the
        # zone's channels), and the chosen channels refuse the client
        for k in (1, 3):
            with pytest.raises(ValueError, match="full"):
                self._join(bed, f"over-{k}", k)
        assert sorted(checked.picks[-1]) == [0, 1, 2]
        checked.check_occupancy()

    def test_channels_opened_mid_run(self, monkeypatch):
        """``HerdTestbed._make_room`` opens channels when fewer than k
        have room; the index takes them at occupancy 0."""
        bed, mix, _, _ = _sp_testbed(n_clients=0, n_channels=2)
        checked = _CheckedPicks(monkeypatch, mix)
        for i in range(80):
            bed.add_client(f"grow-{i}", "zone-EU", k=2,
                           via_superpeers=True)
        assert len(mix.channels) == 4
        assert sorted(checked.picks[-1]) == [2, 3]
        checked.check_occupancy()

    def test_joins_after_reset_client_state(self, monkeypatch):
        bed, mix, sp, _ = _sp_testbed(n_clients=12, n_channels=4)
        checked = _CheckedPicks(monkeypatch, mix)
        checked.check_occupancy()
        mix.reset_client_state()
        assert all(mix.occupancy.occupancy(ch_id) == 0
                   for ch_id in mix.channels)
        # the SP restarts too: its membership follows the mix's
        bed.superpeers["sp-0"] = SuperPeer("sp-0", mix.mix_id)
        for ch_id in mix.channels:
            bed.superpeers["sp-0"].host_channel(ch_id, [])
        for i in range(12):
            self._join(bed, f"again-{i}", 2)
        assert len(checked.picks) == 12
        checked.check_occupancy()


class TestSuperPeerRounds:
    def test_idle_round_roundtrip(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=4, n_channels=2,
                                            k=1)
        channel_id = 0
        members = sp.channel_clients[channel_id]
        packets, manifests = [], []
        for client_id in members:
            client = bed.clients[client_id]
            att = next(a for a in client.attachments
                       if a.channel_id == channel_id)
            pkt, mf = client.upstream_packet(att)
            packets.append(pkt)
            manifests.append(mf)
        up = sp.combine_upstream(channel_id, 0, packets, manifests)
        assert len(up.xor_packet) == CODED_PACKET_SIZE
        # Mix decodes manifests by slot, then the round.
        entries = []
        for slot, raw in enumerate(up.manifests):
            client_id = mix.client_at_slot(channel_id, slot)
            key = mix.client_keys[client_id]
            numeric = mix.channels[channel_id].members[slot]
            m = decode_manifest(raw, key, slot, expected_sequence=0)
            entries.append((numeric, m.sequence, m.signal))
        active, payload, signalers = mix.decode_channel_round(
            channel_id, up.xor_packet, entries)
        assert active is None
        assert payload == b""
        assert signalers == []

    def test_active_round_recovers_cell(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=4, n_channels=2,
                                            k=1)
        channel_id = 0
        members = sp.channel_clients[channel_id]
        talker_id = members[0]
        talker = bed.clients[talker_id]
        talker_att = next(a for a in talker.attachments
                          if a.channel_id == channel_id)
        # Mix allocates the call to the talker on this channel.
        mix.channels[channel_id].start_call(talker_att.slot)
        cell = b"ONION-CELL" * 4
        packets, manifests = [], []
        for client_id in members:
            client = bed.clients[client_id]
            att = next(a for a in client.attachments
                       if a.channel_id == channel_id)
            payload = cell if client_id == talker_id else None
            pkt, mf = client.upstream_packet(att, payload)
            packets.append(pkt)
            manifests.append(mf)
        up = sp.combine_upstream(channel_id, 0, packets, manifests)
        entries = []
        for slot, raw in enumerate(up.manifests):
            client_id = mix.client_at_slot(channel_id, slot)
            key = mix.client_keys[client_id]
            numeric = mix.channels[channel_id].members[slot]
            m = decode_manifest(raw, key, slot, expected_sequence=0)
            entries.append((numeric, m.sequence, m.signal))
        active, payload, _ = mix.decode_channel_round(
            channel_id, up.xor_packet, entries)
        assert active == mix.channels[channel_id].members[
            talker_att.slot]
        assert payload[:len(cell)] == cell

    def test_signal_bit_travels_in_manifest(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=2, n_channels=1,
                                            k=1)
        caller = clients[0]
        caller.request_outgoing_call()
        members = sp.channel_clients[0]
        packets, manifests = [], []
        for client_id in members:
            client = bed.clients[client_id]
            att = client.attachments[0]
            pkt, mf = client.upstream_packet(att)
            packets.append(pkt)
            manifests.append(mf)
        up = sp.combine_upstream(0, 0, packets, manifests)
        entries = []
        for slot, raw in enumerate(up.manifests):
            client_id = mix.client_at_slot(0, slot)
            key = mix.client_keys[client_id]
            numeric = mix.channels[0].members[slot]
            m = decode_manifest(raw, key, slot, expected_sequence=0)
            entries.append((numeric, m.sequence, m.signal))
        _, _, signalers = mix.decode_channel_round(0, up.xor_packet,
                                                   entries)
        caller_numeric = mix.channels[0].members[
            caller.attachments[0].slot]
        assert signalers == [caller_numeric]

    def test_packet_count_mismatch_rejected(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=2, n_channels=1,
                                            k=1)
        with pytest.raises(ValueError):
            sp.combine_upstream(0, 0, [b"\x00" * CODED_PACKET_SIZE], [])

    def test_wrong_packet_size_rejected(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=2, n_channels=1,
                                            k=1)
        n = len(sp.channel_clients[0])
        with pytest.raises(ValueError):
            sp.combine_upstream(0, 0, [b"\x00" * 7] * n, [b"\x00"] * n)

    def test_audit_buffer_keeps_recent_rounds(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=2, n_channels=1,
                                            k=1)
        members = sp.channel_clients[0]
        for rnd in range(5):
            packets, manifests = [], []
            for client_id in members:
                client = bed.clients[client_id]
                att = client.attachments[0]
                pkt, mf = client.upstream_packet(att)
                packets.append(pkt)
                manifests.append(mf)
            sp.combine_upstream(0, rnd, packets, manifests)
        assert len(sp.audit_packets(0, 4)) == len(members)
        with pytest.raises(KeyError):
            sp.audit_packets(0, 0)  # evicted

    def test_downstream_broadcast_reaches_all(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=4, n_channels=2,
                                            k=1)
        packet = make_downstream_chaff(random.Random(0))
        out = sp.broadcast_downstream(0, packet)
        assert len(out) == len(sp.channel_clients[0])
        assert all(pkt == packet for _, pkt in out)


class TestSignaling:
    def test_announcement_only_callee_decrypts(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=3, n_channels=1,
                                            k=1)
        callee = clients[0]
        key = mix.client_keys[callee.client_id]
        packet = make_downstream_packet(
            key, channel_id=0, round_index=9, kind=KIND_INCOMING,
            payload=IncomingCallAnnouncement(call_id=42).encode())
        assert len(packet) == DOWNSTREAM_PACKET_SIZE
        got = open_downstream_packet(callee.session_key, 0, 9, packet)
        assert got is not None
        kind, payload = got
        assert kind == KIND_INCOMING
        assert IncomingCallAnnouncement.decode(payload).call_id == 42
        for other in clients[1:]:
            assert open_downstream_packet(other.session_key, 0, 9,
                                          packet) is None

    def test_wrong_round_index_fails(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=1, n_channels=1,
                                            k=1)
        key = mix.client_keys[clients[0].client_id]
        packet = make_downstream_packet(key, 0, 5, KIND_VOIP, b"cell")
        assert open_downstream_packet(clients[0].session_key, 0, 6,
                                      packet) is None

    def test_grant_roundtrip(self):
        grant = ChannelGrant(channel_id=3, call_id=77)
        assert ChannelGrant.decode(grant.encode()) == grant

    def test_chaff_looks_uniform_and_never_decrypts(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=2, n_channels=1,
                                            k=1)
        rng = random.Random(1)
        chaff = make_downstream_chaff(rng)
        assert looks_uniform(chaff)
        for client in clients:
            assert open_downstream_packet(client.session_key, 0, 0,
                                          chaff) is None

    def test_oversized_payload_rejected(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=1, n_channels=1,
                                            k=1)
        key = mix.client_keys[clients[0].client_id]
        with pytest.raises(ValueError):
            make_downstream_packet(key, 0, 0, KIND_VOIP, b"\x00" * 400)

    def test_unknown_kind_rejected(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=1, n_channels=1,
                                            k=1)
        key = mix.client_keys[clients[0].client_id]
        with pytest.raises(ValueError):
            make_downstream_packet(key, 0, 0, 0x99, b"")


class TestBlacklist:
    def test_good_sp_stays(self):
        mon = SPMonitor()
        for _ in range(20):
            mon.record_quality("sp-0", loss=0.001, jitter_ms=5.0)
        assert not mon.is_blacklisted("sp-0")

    def test_lossy_sp_blacklisted(self):
        mon = SPMonitor()
        for _ in range(10):
            mon.record_quality("sp-0", loss=0.10, jitter_ms=5.0)
        assert mon.is_blacklisted("sp-0")

    def test_jittery_sp_blacklisted(self):
        mon = SPMonitor()
        for _ in range(10):
            mon.record_quality("sp-0", loss=0.0, jitter_ms=100.0)
        assert mon.is_blacklisted("sp-0")

    def test_no_judgement_before_min_samples(self):
        mon = SPMonitor()
        for _ in range(5):
            mon.record_quality("sp-0", loss=0.5, jitter_ms=200.0)
        assert not mon.is_blacklisted("sp-0")

    def test_unavailable_sp_blacklisted(self):
        mon = SPMonitor()
        for i in range(20):
            mon.record_availability("sp-0", is_up=(i % 2 == 0))
        assert mon.is_blacklisted("sp-0")

    def test_validation(self):
        mon = SPMonitor()
        with pytest.raises(ValueError):
            mon.record_quality("sp", loss=1.5, jitter_ms=0)
        with pytest.raises(ValueError):
            mon.record_quality("sp", loss=0.0, jitter_ms=-1)

    def test_audit_identifies_lying_client(self):
        mon = SPMonitor()
        culprit = mon.audit_round(
            "sp-0",
            packets_by_client={"c1": b"expected", "c2": b"forged"},
            expected_by_client={"c1": b"expected", "c2": b"other"})
        assert culprit == "c2"
        assert "c2" in mon.blacklisted_clients
        assert not mon.is_blacklisted("sp-0")

    def test_audit_blames_sp_when_clients_honest(self):
        mon = SPMonitor()
        culprit = mon.audit_round(
            "sp-0",
            packets_by_client={"c1": b"expected"},
            expected_by_client={"c1": b"expected"})
        assert culprit is None
        assert mon.is_blacklisted("sp-0")


class TestInvariantI8:
    def test_sp_state_contains_no_activity(self):
        bed, mix, sp, clients = _sp_testbed()
        assert sp_state_is_activity_free(sp)

    def test_sp_traffic_identical_active_vs_idle(self):
        """I8 behaviourally: the byte volume an SP forwards per round is
        identical whether or not a call is active."""
        def run_rounds(active: bool) -> dict:
            bed, mix, sp, clients = _sp_testbed(n_clients=4,
                                                n_channels=2, k=1,
                                                seed=13)
            members = sp.channel_clients[0]
            talker = bed.clients[members[0]]
            att = talker.attachments[0]
            if active:
                mix.channels[0].start_call(att.slot)
            volume = {}
            for rnd in range(20):
                packets, manifests = [], []
                for client_id in members:
                    client = bed.clients[client_id]
                    a = client.attachments[0]
                    payload = (b"CELL" if active and
                               client is talker else None)
                    pkt, mf = client.upstream_packet(a, payload)
                    packets.append(pkt)
                    manifests.append(mf)
                up = sp.combine_upstream(0, rnd, packets, manifests)
                volume[rnd] = (len(up.xor_packet)
                               + sum(len(m) for m in up.manifests))
            return volume

        assert series_identical(run_rounds(False), run_rounds(True))

    def test_client_upstream_ciphertext_uniform(self):
        bed, mix, sp, clients = _sp_testbed(n_clients=1, n_channels=1,
                                            k=1)
        client = clients[0]
        att = client.attachments[0]
        chaff_pkt, _ = client.upstream_packet(att)
        voip_pkt, _ = client.upstream_packet(att, b"frame")
        assert looks_uniform(chaff_pkt)
        assert looks_uniform(voip_pkt)
