"""Tests for trust zones, directories, and rate orchestration."""

import random

import pytest

from repro.core.chaffing import ConstantRateChaffer, RateController
from repro.core.directory import DirectoryStalledError, ZoneDirectory
from repro.core.zone import TrustZone, ZoneConfig
from repro.crypto.keys import IdentityKeyPair, ShortTermKeyPair
from repro.crypto.pki import RootOfTrust, make_descriptor
from repro.voip.codec import G711


def _zone(zone_id="zone-EU", rng_seed=1):
    rng = random.Random(rng_seed)
    zone = TrustZone(ZoneConfig(zone_id=zone_id, site_id="dc-eu"))
    root = RootOfTrust(rng)
    directory = ZoneDirectory(zone, root, rng)
    return zone, root, directory, rng


class TestTrustZone:
    def test_add_mix(self):
        zone, _, _, _ = _zone()
        zone.add_mix("mix-1")
        assert zone.mix_ids == ["mix-1"]

    def test_duplicate_mix_rejected(self):
        zone, _, _, _ = _zone()
        zone.add_mix("mix-1")
        with pytest.raises(ValueError):
            zone.add_mix("mix-1")

    def test_interzone_controller_shared_per_zone(self):
        zone, _, _, _ = _zone()
        a = zone.interzone_controller("zone-NA")
        b = zone.interzone_controller("zone-NA")
        assert a is b

    def test_interzone_controller_rejects_self(self):
        zone, _, _, _ = _zone()
        with pytest.raises(ValueError):
            zone.interzone_controller("zone-EU")

    def test_pair_key_sorted(self):
        zone, _, _, _ = _zone()
        assert zone.pair_key("zone-AA") == ("zone-AA", "zone-EU")
        assert zone.pair_key("zone-ZZ") == ("zone-EU", "zone-ZZ")


class TestDirectoryEnrollment:
    def test_directory_certificate_chains_to_root(self):
        _, root, directory, _ = _zone()
        assert directory.certificate.verify(root.public_key)

    def test_enroll_issues_verifiable_cert(self):
        _, root, directory, rng = _zone()
        ident = IdentityKeyPair.generate(rng)
        st = ShortTermKeyPair.generate(rng)
        cert = directory.enroll("client-1", "client",
                                ident.public_bytes, st.public_bytes)
        assert root.verify_chain(cert, directory.certificate)
        assert directory.certificate_of("client-1") == cert

    def test_double_enroll_rejected(self):
        _, _, directory, rng = _zone()
        ident = IdentityKeyPair.generate(rng)
        st = ShortTermKeyPair.generate(rng)
        directory.enroll("c", "client", ident.public_bytes,
                         st.public_bytes)
        with pytest.raises(ValueError):
            directory.enroll("c", "client", ident.public_bytes,
                             st.public_bytes)


class TestDescriptors:
    def test_publish_and_lookup(self):
        _, _, directory, rng = _zone()
        ident = IdentityKeyPair.generate(rng)
        st = ShortTermKeyPair.generate(rng)
        desc = make_descriptor(ident, "mix-1", "zone-EU",
                               st.public_bytes, "addr")
        directory.publish_descriptor(desc)
        assert directory.lookup_descriptor("mix-1") == desc
        assert directory.lookup_descriptor("nobody") is None

    def test_wrong_zone_descriptor_rejected(self):
        _, _, directory, rng = _zone()
        ident = IdentityKeyPair.generate(rng)
        st = ShortTermKeyPair.generate(rng)
        desc = make_descriptor(ident, "mix-1", "zone-NA",
                               st.public_bytes, "addr")
        with pytest.raises(ValueError):
            directory.publish_descriptor(desc)

    def test_invalid_signature_rejected(self):
        from dataclasses import replace
        _, _, directory, rng = _zone()
        ident = IdentityKeyPair.generate(rng)
        st = ShortTermKeyPair.generate(rng)
        desc = make_descriptor(ident, "mix-1", "zone-EU",
                               st.public_bytes, "addr")
        bad = replace(desc, address="evil")
        with pytest.raises(ValueError):
            directory.publish_descriptor(bad)


class TestMixSelectionAndRendezvous:
    def test_pick_mix_uniform(self):
        zone, _, directory, _ = _zone()
        for i in range(5):
            zone.add_mix(f"mix-{i}")
        counts = {}
        for _ in range(2000):
            m = directory.pick_mix()
            counts[m] = counts.get(m, 0) + 1
        expected = 2000 / 5
        assert all(abs(c - expected) < 0.3 * expected
                   for c in counts.values())

    def test_pick_mix_never_returns_a_pruned_mix(self):
        """A re-join after a mix failure lands elsewhere because the
        directory no longer lists the dead mix."""
        zone, _, directory, _ = _zone()
        zone.add_mix("mix-0")
        zone.add_mix("mix-1")
        zone.remove_mix("mix-0")
        assert {directory.pick_mix() for _ in range(20)} == {"mix-1"}

    def test_pick_mix_empty_zone(self):
        _, _, directory, _ = _zone()
        with pytest.raises(RuntimeError):
            directory.pick_mix()

    def test_pick_mix_draws_one_choice_over_the_zone_mixes(self):
        """Each redirection is one ``rng.choice`` over the zone's mix
        list, so a seeded directory replays the same redirections."""
        zone, _, directory, _ = _zone()
        for i in range(4):
            zone.add_mix(f"mix-{i}")
        twin = random.Random(0)
        twin.setstate(directory.rng.getstate())
        picks = [directory.pick_mix() for _ in range(12)]
        assert picks == [twin.choice(list(zone.mix_ids))
                         for _ in range(12)]

    def test_stalled_directory_refuses_redirection(self):
        zone, _, directory, _ = _zone()
        zone.add_mix("mix-0")
        directory.stalled = True
        with pytest.raises(DirectoryStalledError):
            directory.pick_mix()
        directory.stalled = False
        assert directory.pick_mix() == "mix-0"

    def test_rendezvous_publish_lookup(self):
        zone, _, directory, _ = _zone()
        zone.add_mix("mix-0")
        directory.publish_rendezvous(b"\x01" * 32, "mix-0")
        record = directory.lookup_rendezvous(b"\x01" * 32)
        assert record.rendezvous_mix == "mix-0"
        assert directory.lookup_rendezvous(b"\x02" * 32) is None

    def test_rendezvous_must_be_zone_mix(self):
        _, _, directory, _ = _zone()
        with pytest.raises(ValueError):
            directory.publish_rendezvous(b"\x01" * 32, "foreign-mix")


class TestRateOrchestration:
    def test_reports_require_known_mix(self):
        _, _, directory, _ = _zone()
        with pytest.raises(ValueError):
            directory.report_utilization("mix-0", 3)

    def test_epoch_aggregates_reports(self):
        zone, _, directory, _ = _zone()
        zone.add_mix("mix-0")
        zone.add_mix("mix-1")
        directory.report_utilization("mix-0", 10)
        directory.report_utilization("mix-1", 30)
        rates = directory.run_epoch(0)
        # 40 active calls at initial rate 1 → massive over-utilization
        # → scale to ceil(40 / 0.5) = 80 units.
        assert rates["sp_links"] == 80
        assert rates["intra_links"] == 80

    def test_epoch_clears_reports(self):
        zone, _, directory, _ = _zone()
        zone.add_mix("mix-0")
        directory.report_utilization("mix-0", 10)
        directory.run_epoch(0)
        rates = directory.run_epoch(1)
        # No reports → zero load → scale down to the minimum.
        assert rates["sp_links"] == 1

    def test_interzone_epoch_synchronizes_rates(self):
        zone_a, root_a, dir_a, _ = _zone("zone-A")
        zone_b = TrustZone(ZoneConfig(zone_id="zone-B", site_id="dc-na"))
        dir_b = ZoneDirectory(zone_b, root_a, random.Random(2))
        rate = dir_a.run_interzone_epoch(0, dir_b, pair_calls=25)
        assert rate == 50  # ceil(25 / 0.5)
        assert zone_a.interzone_controller("zone-B").rate == rate
        assert zone_b.interzone_controller("zone-A").rate == rate


class TestRateController:
    def test_no_change_within_band(self):
        rc = RateController(initial_rate=10)
        assert rc.on_epoch(0, 5) == 10  # utilization 0.5 = target
        assert rc.adjustments == 0

    def test_scale_up_above_high_water(self):
        rc = RateController(initial_rate=10)
        assert rc.on_epoch(0, 9) == 18  # 0.9 > 0.85 → ceil(9/0.5)

    def test_scale_down_below_low_water(self):
        rc = RateController(initial_rate=100)
        assert rc.on_epoch(0, 10) == 20  # 0.1 < 0.25 → ceil(10/0.5)

    def test_zero_load_goes_to_min(self):
        rc = RateController(initial_rate=100, min_rate=2)
        assert rc.on_epoch(0, 0) == 2

    def test_max_rate_cap(self):
        rc = RateController(initial_rate=1, max_rate=5)
        assert rc.on_epoch(0, 100) == 5

    def test_hysteresis_reduces_adjustments(self):
        rc = RateController(initial_rate=10)
        for epoch, load in enumerate([5, 5.5, 4.5, 5, 5.2]):
            rc.on_epoch(epoch, load)
        assert rc.adjustments == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateController(target=0.9, low_water=0.95, high_water=0.99)
        with pytest.raises(ValueError):
            RateController(initial_rate=0, min_rate=1)
        rc = RateController()
        with pytest.raises(ValueError):
            rc.on_epoch(0, -1)


class TestConstantRateChaffer:
    def test_chaff_when_idle(self):
        ch = ConstantRateChaffer(G711)
        slots = ch.tick()
        assert slots == [None]
        assert ch.chaff_sent == 1

    def test_payload_substitution(self):
        ch = ConstantRateChaffer(G711)
        ch.enqueue_payload(b"cell-1")
        ch.enqueue_payload(b"cell-2")
        assert ch.tick() == [b"cell-1"]
        assert ch.tick() == [b"cell-2"]
        assert ch.tick() == [None]
        assert ch.payload_sent == 2
        assert ch.chaff_sent == 1

    def test_rate_multiple(self):
        ch = ConstantRateChaffer(G711, rate_multiple=3)
        ch.enqueue_payload(b"x")
        slots = ch.tick()
        assert len(slots) == 3
        assert slots[0] == b"x"
        assert slots[1] is None

    def test_interval_from_codec(self):
        assert ConstantRateChaffer(G711).interval == 0.02

    def test_emission_count_is_payload_independent(self):
        """Invariant I6: ticks emit exactly the same number of packets
        whether or not payload is queued."""
        idle = ConstantRateChaffer(G711)
        busy = ConstantRateChaffer(G711)
        for i in range(100):
            if i % 3 == 0:
                busy.enqueue_payload(b"frame")
            idle.tick()
            busy.tick()
        assert (idle.payload_sent + idle.chaff_sent
                == busy.payload_sent + busy.chaff_sent == 100)

    def test_rate_multiple_validation(self):
        with pytest.raises(ValueError):
            ConstantRateChaffer(G711, rate_multiple=0)
