"""Tests: churn/failover (§3.5) and Sybil analysis (§3.7)."""

import random

import pytest

from repro.analysis.sybil import (
    channel_capture_probability,
    effective_anonymity,
    expected_captured_channels,
    sybil_attack_cost,
    sybils_needed_for_capture,
)
from repro.attacks.longterm import long_term_intersection
from repro.core.join import join_zone
from repro.simulation.churn import (
    AvailabilityModel,
    exposure_rounds,
    fail_mix,
    fail_superpeer,
    recover_mix,
    recover_superpeer,
)

from conftest import build_testbed


def _rejoin(bed, client_id):
    """Re-join a client through its zone's directory, as the engine's
    re-join does once the dead mix is pruned."""
    client = bed.clients[client_id]
    return join_zone(client, bed.directories[client.zone_id], bed.mixes,
                     rng=bed.rng)


class TestFailover:
    def test_fail_mix_orphans_its_clients(self):
        bed = build_testbed()
        clients = [bed.add_client(f"c{i}", "zone-EU") for i in range(6)]
        target = clients[0].mix_id
        orphans = fail_mix(bed, target)
        assert orphans
        for cid in orphans:
            assert not bed.clients[cid].joined
        assert target not in bed.mixes
        assert target not in bed.zones["zone-EU"].mix_ids

    def test_rejoin_lands_on_surviving_mix(self):
        bed = build_testbed()
        for i in range(6):
            bed.add_client(f"c{i}", "zone-EU")
        target = bed.clients["c0"].mix_id
        orphans = fail_mix(bed, target)
        assert orphans
        for cid in orphans:
            result = _rejoin(bed, cid)
            client = bed.clients[cid]
            assert client.joined
            assert client.mix_id != target
            assert client.mix_id in bed.mixes
            assert result.mix_id == client.mix_id

    def test_rejoined_client_keeps_certificate(self):
        bed = build_testbed()
        bed.add_client("c0", "zone-EU")
        client = bed.clients["c0"]
        cert_before = client.certificate
        target = client.mix_id
        orphans = fail_mix(bed, target)
        if "c0" in orphans:
            _rejoin(bed, "c0")
        assert client.certificate == cert_before

    def test_rejoined_client_can_call(self):
        bed = build_testbed()
        bed.add_client("alice", "zone-EU")
        bed.add_client("bob", "zone-NA")
        alice = bed.clients["alice"]
        failed = alice.mix_id
        for cid in fail_mix(bed, failed):
            _rejoin(bed, cid)
        bed.ready_for_calls("alice")
        bed.ready_for_calls("bob")
        session = bed.call("alice", "bob")
        assert session.send_voice("caller_to_callee", b"x" * 80) \
            == b"x" * 80

    def test_fail_unknown_mix_raises(self):
        bed = build_testbed()
        with pytest.raises(KeyError):
            fail_mix(bed, "nope")

    def test_double_mix_failure_raises_keyerror(self):
        # A second failure of the same mix is a KeyError ("no such
        # mix"), never a ValueError from the zone's membership list.
        bed = build_testbed()
        target = bed.zones["zone-EU"].mix_ids[0]
        fail_mix(bed, target)
        with pytest.raises(KeyError):
            fail_mix(bed, target)

    def test_fail_mix_already_pruned_from_directory(self):
        # The directory pruned the mix first (e.g. an operator action);
        # failing it afterwards must not blow up on the zone removal.
        bed = build_testbed()
        target = bed.zones["zone-EU"].mix_ids[0]
        bed.zones["zone-EU"].remove_mix(target)
        orphans = fail_mix(bed, target)
        assert orphans == []
        assert target not in bed.mixes

    def test_unclean_crash_keeps_directory_listing(self):
        bed = build_testbed()
        target = bed.zones["zone-EU"].mix_ids[0]
        fail_mix(bed, target, prune_directory=False)
        assert target not in bed.mixes
        assert target in bed.zones["zone-EU"].mix_ids

    def test_remove_unregistered_mix_raises_keyerror(self):
        bed = build_testbed()
        with pytest.raises(KeyError):
            bed.zones["zone-EU"].remove_mix("ghost")

    def test_recover_mix_round_trip(self):
        bed = build_testbed()
        bed.add_client("c0", "zone-EU")
        target = bed.clients["c0"].mix_id
        mix = bed.mixes[target]
        fail_mix(bed, target)
        recover_mix(bed, mix)
        assert target in bed.mixes
        assert target in bed.zones["zone-EU"].mix_ids
        assert mix.client_keys == {}  # sessions gone; clients re-join
        with pytest.raises(ValueError):
            recover_mix(bed, mix)  # already running
        # A re-join through the recovered mix works.
        result = _rejoin(bed, "c0")
        assert bed.clients["c0"].joined
        assert result.mix_id in bed.mixes

    def test_fail_superpeer(self):
        bed = build_testbed(zone_specs=[("zone-EU", "dc-eu", 1)])
        mix = bed.mixes["zone-EU/mix-0"]
        mix.configure_channels(2)
        bed.add_superpeer("sp-0", mix.mix_id, channels=[0, 1])
        c = bed.add_client("c0", "zone-EU", k=2, via_superpeers=True)
        affected = fail_superpeer(bed, "sp-0")
        assert affected == ["c0"]
        # Detached, not dropped: still joined at the mix, with none of
        # the dead SP's channels left in its attachments.
        assert c.joined and c.mix_id == mix.mix_id
        assert c.attachments == []
        with pytest.raises(KeyError):
            fail_superpeer(bed, "sp-0")

    def test_fail_superpeer_without_clients_returns_empty_list(self):
        bed = build_testbed(zone_specs=[("zone-EU", "dc-eu", 1)])
        mix = bed.mixes["zone-EU/mix-0"]
        mix.configure_channels(2)
        bed.add_superpeer("sp-0", mix.mix_id, channels=[0, 1])
        affected = fail_superpeer(bed, "sp-0")
        assert affected == []  # a list, never None

    def test_fail_superpeer_detach_only_keeps_session(self):
        bed = build_testbed(zone_specs=[("zone-EU", "dc-eu", 1)])
        mix = bed.mixes["zone-EU/mix-0"]
        mix.configure_channels(4)
        bed.add_superpeer("sp-0", mix.mix_id, channels=[0, 1])
        bed.add_superpeer("sp-1", mix.mix_id, channels=[2, 3])
        c = bed.add_client("c0", "zone-EU", k=4, via_superpeers=True)
        affected = fail_superpeer(bed, "sp-1")
        assert affected == ["c0"]
        assert c.joined  # still in the zone on the surviving SP
        assert sorted(a.channel_id for a in c.attachments) == [0, 1]

    def test_recover_superpeer_round_trip(self):
        bed = build_testbed(zone_specs=[("zone-EU", "dc-eu", 1)])
        mix = bed.mixes["zone-EU/mix-0"]
        mix.configure_channels(2)
        sp = bed.add_superpeer("sp-0", mix.mix_id, channels=[0, 1])
        bed.add_client("c0", "zone-EU", k=2, via_superpeers=True)
        fail_superpeer(bed, "sp-0")
        recover_superpeer(bed, sp)
        assert bed.superpeers["sp-0"] is sp
        assert sp.channel_clients == {0: [], 1: []}
        with pytest.raises(ValueError):
            recover_superpeer(bed, sp)  # already running


class TestAvailabilityModel:
    def test_matches_skype_statistic(self):
        # §3.1 cites "half of Skype users are available more than 80%".
        model = AvailabilityModel(n_users=2000, seed=1)
        assert model.fraction_above(0.80) == pytest.approx(0.5, abs=0.1)

    def test_online_periods_within_horizon(self):
        model = AvailabilityModel(n_users=5, seed=2)
        periods = model.online_periods(0, horizon_s=86400.0)
        for a, b in periods:
            assert 0.0 <= a <= b <= 86400.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AvailabilityModel(n_users=0)
        with pytest.raises(ValueError):
            AvailabilityModel(n_users=5, median_availability=1.5)

    def test_offline_gaps_enable_intersection_without_herd(self):
        """Without always-on connections, offline users drop out of the
        candidate sets and the intersection shrinks; Herd removes this
        signal by keeping everyone connected."""
        model = AvailabilityModel(n_users=300, seed=3,
                                  median_availability=0.6)
        rng = random.Random(4)
        events = [rng.uniform(0, 30 * 86400.0) for _ in range(40)]
        rounds = exposure_rounds(model, target=0, event_times=events,
                                 horizon_s=30 * 86400.0)
        exposed = long_term_intersection(rounds)
        assert exposed.final_anonymity < 300 * 0.5
        herd_rounds = [set(range(300)) for _ in events]
        protected = long_term_intersection(herd_rounds)
        assert protected.final_anonymity == 300


class TestSybilAnalysis:
    def test_effective_anonymity(self):
        assert effective_anonymity(1000, 400) == 600
        with pytest.raises(ValueError):
            effective_anonymity(100, 100)
        with pytest.raises(ValueError):
            effective_anonymity(100, -1)

    def test_capture_probability_bounds(self):
        assert channel_capture_probability(0.0, 10) == 0.0
        assert channel_capture_probability(1.0, 10) == 1.0

    def test_capture_harder_with_bigger_channels(self):
        p_small = channel_capture_probability(0.5, 5)
        p_big = channel_capture_probability(0.5, 50)
        assert p_big < p_small

    def test_capture_probability_increases_with_sybils(self):
        values = [channel_capture_probability(f, 10)
                  for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values)

    def test_expected_captured_channels(self):
        expected = expected_captured_channels(0.5, 100, 10)
        assert expected == pytest.approx(
            100 * channel_capture_probability(0.5, 10))

    def test_targeting_one_channel_needs_zone_scale_sybils(self):
        # §3.7: the mix controls placement, so capturing a specific
        # channel with even 50% probability requires flooding a large
        # share of the whole zone.
        needed = sybils_needed_for_capture(0.5, clients_per_channel=10,
                                           zone_population=10_000)
        assert needed is not None
        assert needed > 0.7 * 10_000

    def test_attack_cost_scales(self):
        cost = sybil_attack_cost(10_000, signup_fee=5.0,
                                 monthly_fee=1.0)
        assert cost.signup_fees == 50_000.0
        assert cost.first_month_total == 60_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            channel_capture_probability(1.5, 10)
        with pytest.raises(ValueError):
            channel_capture_probability(0.5, 0)
        with pytest.raises(ValueError):
            sybil_attack_cost(-1)
        with pytest.raises(ValueError):
            sybils_needed_for_capture(0.0, 10, 100)

