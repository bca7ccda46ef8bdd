"""Tests for links, nodes, observers, and the geographic topology."""

import pytest

from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.observer import LinkObserver, Observation
from repro.netsim.packet import IP_UDP_HEADER_BYTES, Packet
from repro.netsim.topology import (
    EC2_REGIONS,
    GeoTopology,
    INTRA_REGION_OWD,
    INTRA_SITE_OWD,
    Site,
    default_topology,
)


def _pair(loop, **link_kwargs):
    a, b = Node("a", loop), Node("b", loop)
    link = Link(loop, a, b, **link_kwargs)
    return a, b, link


class TestLinkDelivery:
    def test_delivery_after_one_way_delay(self):
        loop = EventLoop()
        a, b, _ = _pair(loop, one_way_delay=0.05)
        got = []
        b.on_packet(lambda p: got.append((loop.now, p.payload)))
        a.send("b", Packet(b"hello", "a", "b"))
        loop.run()
        assert got == [(0.05, b"hello")]

    def test_bidirectional(self):
        loop = EventLoop()
        a, b, _ = _pair(loop, one_way_delay=0.01)
        got = []
        a.on_packet(lambda p: got.append(p.payload))
        b.on_packet(lambda p: b.send("a", Packet(b"pong", "b", "a")))
        a.send("b", Packet(b"ping", "a", "b"))
        loop.run()
        assert got == [b"pong"]
        assert loop.now == pytest.approx(0.02)

    def test_serialization_delay(self):
        loop = EventLoop()
        a, b, _ = _pair(loop, one_way_delay=0.0, bandwidth_bps=1000.0)
        got = []
        b.on_packet(lambda p: got.append(loop.now))
        pkt = Packet(b"x" * (100 - IP_UDP_HEADER_BYTES), "a", "b")
        a.send("b", pkt)  # 100 bytes at 1000 B/s = 0.1 s
        loop.run()
        assert got == [pytest.approx(0.1)]

    def test_loss(self):
        loop = EventLoop(seed=3)
        a, b, link = _pair(loop, loss_rate=0.5)
        got = []
        b.on_packet(lambda p: got.append(p))
        for _ in range(200):
            a.send("b", Packet(b"x", "a", "b"))
        loop.run()
        assert 60 < len(got) < 140  # ~100 expected
        assert link.stats["a"].dropped == 200 - len(got)

    def test_jitter_varies_delay_but_keeps_it_positive(self):
        loop = EventLoop(seed=1)
        a, b, _ = _pair(loop, one_way_delay=0.01, jitter_std=0.005)
        times = []
        b.on_packet(lambda p: times.append(loop.now - p.sent_at))
        for _ in range(50):
            a.send("b", Packet(b"x", "a", "b"))
        loop.run()
        assert all(t >= 0.01 for t in times)
        assert len(set(round(t, 9) for t in times)) > 1

    def test_unknown_peer_raises(self):
        loop = EventLoop()
        a = Node("a", loop)
        with pytest.raises(KeyError):
            a.send("nowhere", Packet(b"", "a", "nowhere"))

    def test_stats_track_bytes(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        b.on_packet(lambda p: None)
        a.send("b", Packet(b"12345", "a", "b"))
        loop.run()
        assert link.stats["a"].packets == 1
        assert link.stats["a"].bytes == 5 + IP_UDP_HEADER_BYTES
        assert b.bytes_received == 5 + IP_UDP_HEADER_BYTES

    def test_unhandled_packets_counted(self):
        loop = EventLoop()
        a, b, _ = _pair(loop)
        a.send("b", Packet(b"x", "a", "b"))
        loop.run()
        assert b.unhandled_packets == 1

    def test_parameter_validation(self):
        loop = EventLoop()
        a, b = Node("a", loop), Node("b", loop)
        with pytest.raises(ValueError):
            Link(loop, a, b, one_way_delay=-1)
        with pytest.raises(ValueError):
            Link(loop, a, b, loss_rate=1.0)
        with pytest.raises(ValueError):
            Link(loop, a, b, bandwidth_bps=0)

    def test_other_endpoint_validation(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        c = Node("c", loop)
        assert link.other(a) is b
        with pytest.raises(ValueError):
            link.other(c)


class TestObservationLog:
    """The burst store reads back as the per-cell list it replaced."""

    @staticmethod
    def _expected(rounds=4):
        # What a per-cell list would hold: each round, one cell a→b,
        # two identical cells b→c, one larger cell a→b.
        return [Observation(0.02 * r, size, src, dst)
                for r in range(rounds)
                for size, src, dst in ((329, "a", "b"), (329, "b", "c"),
                                       (329, "b", "c"), (400, "a", "b"))]

    def _log(self, rounds=4):
        obs = LinkObserver()
        for r in range(rounds):
            obs.record_runs(0.02 * r, "a", "b", [329], [1])
            obs.record_runs(0.02 * r, "b", "c", [329], [2])
            obs.record(0.02 * r, Packet(b"x" * 372, "a", "b"), "a", "b")
        return obs.observations

    def test_reads_as_a_sequence_of_observations(self):
        log, expected = self._log(), self._expected()
        assert len(log) == len(expected) == 16
        assert list(log) == expected and log == expected
        assert expected == list(log)
        assert [log[i] for i in range(16)] == expected
        assert [log[i] for i in range(-16, 0)] == expected
        assert log[3:9] == expected[3:9] and log[:0] == []
        assert log[::5] == expected[::5] and log[-3:] == expected[-3:]
        assert log[14:99] == expected[14:]
        assert log != expected[:-1] and log != self._log(3)
        with pytest.raises(IndexError):
            log[16]
        with pytest.raises(IndexError):
            log[-17]
        assert expected[5] in log and log.index(expected[5]) == 5

    def test_reading_mid_burst_loses_nothing(self):
        obs = LinkObserver()
        obs.record_runs(0.0, "a", "b", [329], [1])
        assert len(obs.observations) == 1
        obs.record_runs(0.0, "b", "c", [329], [2])
        assert obs.observations == self._expected(1)[:3]

    def test_steady_rounds_share_one_shape(self):
        """Constant-rate links repeat their round: the log holds its
        shape once, whatever the number of rounds."""
        log = self._log(rounds=50)
        list(log)
        shapes = [shape for _, shape in log._bursts]
        assert len(shapes) == 50
        assert all(shape is shapes[0] for shape in shapes)
        changed = self._log(rounds=3)
        changed.add(0.5, 329, "a", "b")
        assert len(changed) == 13
        list(changed)
        assert changed._bursts[-1][1] is not changed._bursts[0][1]

    def test_clear(self):
        obs = LinkObserver()
        obs.record_runs(0.0, "a", "b", [329], [3])
        obs.clear()
        assert obs.observations == [] and len(obs.observations) == 0
        obs.record_runs(0.0, "a", "b", [329], [1])
        assert obs.observations == [Observation(0.0, 329, "a", "b")]


class TestObserver:
    def test_observer_sees_wire_fields_only(self):
        loop = EventLoop()
        a, b, link = _pair(loop, one_way_delay=0.01)
        obs = LinkObserver()
        link.add_observer(obs)
        b.on_packet(lambda p: None)
        a.send("b", Packet(b"secret", "a", "b", kind="voip"))
        loop.run()
        assert len(obs.observations) == 1
        rec = obs.observations[0]
        assert rec.src == "a" and rec.dst == "b"
        assert rec.size == 6 + IP_UDP_HEADER_BYTES
        assert not hasattr(rec, "payload")
        assert not hasattr(rec, "kind")

    def test_observer_sees_dropped_packets_too(self):
        loop = EventLoop(seed=0)
        a, b, link = _pair(loop, loss_rate=0.9)
        obs = LinkObserver()
        link.add_observer(obs)
        b.on_packet(lambda p: None)
        for _ in range(20):
            a.send("b", Packet(b"x", "a", "b"))
        loop.run()
        assert len(obs.observations) == 20

    def test_a_tap_learns_nothing_of_drops(self):
        # A wire tap cannot tell a dropped packet from a delivered
        # one: the link offers every attempt to ``record`` and calls
        # nothing else, while the drop count lives in LinkStats.
        class Tap:
            def __init__(self):
                self.calls = []

            def record(self, time, packet, src, dst):
                self.calls.append("record")

            def record_drop(self, time, packet, src, dst):
                self.calls.append("record_drop")

        loop = EventLoop(seed=0)
        a, b, link = _pair(loop, loss_rate=0.5)
        tap = Tap()
        link.add_observer(tap)
        b.on_packet(lambda p: None)
        for _ in range(40):
            a.send("b", Packet(b"x", "a", "b"))
        loop.run()
        assert tap.calls == ["record"] * 40
        stats = link.stats["a"]
        assert stats.dropped > 0
        assert stats.dropped + stats.packets == 40

    def test_time_series_binning(self):
        obs = LinkObserver()
        pkt = Packet(b"x" * 72, "a", "b")  # 100 B on the wire
        for t in (0.1, 0.2, 1.5, 2.7):
            obs.record(t, pkt, "a", "b")
        series = obs.time_series("a", "b", bin_width=1.0)
        assert series == {0: 200, 1: 100, 2: 100}

    def test_time_series_directionality(self):
        obs = LinkObserver()
        pkt = Packet(b"x", "x", "y")
        obs.record(0.0, pkt, "a", "b")
        obs.record(0.0, pkt, "b", "a")
        assert len(obs.time_series("a", "b", 1.0)) == 1
        assert obs.directed_pairs() == [("a", "b"), ("b", "a")]

    def test_rate_changes_empty_for_constant_rate(self):
        obs = LinkObserver()
        pkt = Packet(b"x" * 72, "a", "b")
        for i in range(100):
            obs.record(i * 0.02, pkt, "a", "b")  # 50 pkt/s constant
        assert obs.rate_changes("a", "b", bin_width=1.0) == []

    def test_rate_changes_detects_step(self):
        obs = LinkObserver()
        pkt = Packet(b"x" * 72, "a", "b")
        for i in range(50):
            obs.record(i * 0.02, pkt, "a", "b")
        for i in range(100):  # double the rate from t=2
            obs.record(2.0 + i * 0.01, pkt, "a", "b")
        assert obs.rate_changes("a", "b", bin_width=1.0)

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            LinkObserver().time_series("a", "b", 0.0)


class TestTopology:
    def test_default_topology_has_four_sites(self):
        topo = default_topology()
        assert set(topo.sites) == {"dc-au", "dc-eu", "dc-na", "dc-sa"}

    def test_intra_site_delay(self):
        topo = default_topology()
        assert topo.one_way_delay("dc-eu", "dc-eu") == INTRA_SITE_OWD

    def test_inter_region_symmetry(self):
        topo = default_topology()
        assert (topo.one_way_delay("dc-au", "dc-eu")
                == topo.one_way_delay("dc-eu", "dc-au"))

    def test_au_is_farther_than_atlantic(self):
        topo = default_topology()
        assert (topo.one_way_delay("dc-au", "dc-eu")
                > topo.one_way_delay("dc-na", "dc-eu"))

    def test_intra_region_delay(self):
        topo = GeoTopology([Site("a", "EU"), Site("b", "EU")])
        assert topo.one_way_delay("a", "b") == INTRA_REGION_OWD

    def test_access_delay_local_and_remote(self):
        topo = default_topology()
        local = topo.access_delay("dc-eu", "EU")
        remote = topo.access_delay("dc-eu", "NA")
        assert remote > local

    def test_duplicate_site_rejected(self):
        topo = default_topology()
        with pytest.raises(ValueError):
            topo.add_site(Site("dc-eu", "EU"))

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            GeoTopology([Site("x", "XX")])

    def test_all_region_pairs_have_delays(self):
        topo = default_topology()
        codes = list(EC2_REGIONS)
        for i, a in enumerate(codes):
            for b in codes[i + 1:]:
                assert topo.inter_region_delay(a, b) > 0
