"""The real-network plane in isolation: introducer, collector, fabric.

:mod:`repro.net` carries the same cell protocol as the simulator
planes over real loopback UDP (DESIGN.md §14).  These tests pin its
three layers without the facade on top:

* the introducer's request/reply codec and bootstrap protocol
  (tahoe-style: nodes announce, senders fetch the directory);
* :class:`~repro.net.transport.RoundCollector`, the receive-side
  round barrier that rebuilds the batch-v2 run table from unordered
  datagrams and names what is missing for retransmission;
* :class:`~repro.net.transport.UdpFabric` end to end, including the
  :meth:`~repro.core.transport.CellTransport.net_report` side channel.
"""

import asyncio
import gc
import warnings

import pytest

from repro.core.wire import CellFrame, WireFormatError, \
    encode_cell_frame
from repro.net import introducer as intro
from repro.net import transport
from repro.net.transport import IP_UDP_HEADER_BYTES, RoundCollector, \
    UdpFabric


class TestIntroducerCodec:
    def test_announce_roundtrip(self):
        wire = intro.encode_announce(7, "mix-0", "127.0.0.1", 4711)
        assert intro.decode_intro(wire) == \
            ("announce", 7, ("mix-0", "127.0.0.1", 4711))

    def test_ack_getdir_directory_roundtrip(self):
        assert intro.decode_intro(intro.encode_ack(3, 2)) == \
            ("ack", 3, (2,))
        assert intro.decode_intro(intro.encode_getdir(9)) == \
            ("getdir", 9, ())
        entries = {"sp-0": ("127.0.0.1", 1000),
                   "mix-0": ("127.0.0.1", 1001)}
        kind, seq, body = intro.decode_intro(
            intro.encode_directory(4, entries))
        assert (kind, seq) == ("directory", 4)
        assert body[0] == entries

    def test_malformed_raises_typed(self):
        for bad in (b"", b"HI", b"XX\x01\x00" + b"\x00" * 8,
                    intro.encode_getdir(1) + b"junk",
                    intro.encode_ack(1, 1)[:-1]):
            with pytest.raises(WireFormatError):
                intro.decode_intro(bad)

    def test_intro_namespace_disjoint_from_cell_frames(self):
        # An introducer datagram must never decode as a cell frame
        # and vice versa: different magics, different namespaces.
        from repro.core.wire import decode_cell_frame
        with pytest.raises(WireFormatError):
            decode_cell_frame(intro.encode_getdir(1))
        with pytest.raises(WireFormatError):
            intro.decode_intro(encode_cell_frame(CellFrame(
                round_index=0, run=0, seq=0, kind="data",
                src="a", dst="b", payload=b"")))


class TestIntroducerProtocol:
    def test_announce_then_fetch(self):
        async def scenario():
            server = intro.Introducer()
            address = await server.start()
            try:
                size = await intro.announce(
                    address, 1, "sp-0", "127.0.0.1", 5000,
                    timeout=0.5, attempts=4)
                assert size == 1
                size = await intro.announce(
                    address, 2, "mix-0", "127.0.0.1", 5001,
                    timeout=0.5, attempts=4)
                assert size == 2
                directory = await intro.fetch_directory(
                    address, 3, timeout=0.5, attempts=4)
                return directory, server.announcements
            finally:
                server.close()
                await asyncio.sleep(0)

        directory, announcements = asyncio.run(scenario())
        assert directory == {"sp-0": ("127.0.0.1", 5000),
                             "mix-0": ("127.0.0.1", 5001)}
        assert announcements == 2

    def test_unreachable_raises_after_attempts(self):
        async def scenario():
            # Bind then close to get a port with nothing behind it.
            server = intro.Introducer()
            address = await server.start()
            server.close()
            await asyncio.sleep(0)
            await intro.announce(address, 1, "sp-0", "127.0.0.1",
                                 5000, timeout=0.05, attempts=2)

        with pytest.raises(intro.IntroducerUnreachable,
                           match="2 attempts"):
            asyncio.run(scenario())


def _frame(round_index, run, seq, payload=b"\x00" * 64,
           src="sp-0", dst="mix-0", kind="up"):
    return CellFrame(round_index=round_index, run=run, seq=seq,
                     kind=kind, src=src, dst=dst, payload=payload)


class TestRoundCollector:
    def test_rebuilds_run_table(self):
        collector = RoundCollector()
        collector.arm(5, {0: 2, 1: 1})
        # Out-of-order arrival: the table still comes out canonical.
        collector.add(_frame(5, 1, 0, b"\x01" * 32,
                             src="mix-0", dst="sp-0", kind="down"))
        collector.add(_frame(5, 0, 1))
        assert not collector.complete
        assert collector.missing() == [(0, 0)]
        collector.add(_frame(5, 0, 0))
        assert collector.complete
        assert collector.table_rows() == [
            (0, "sp-0", "mix-0", 64 + IP_UDP_HEADER_BYTES, 2),
            (1, "mix-0", "sp-0", 32 + IP_UDP_HEADER_BYTES, 1),
        ]

    def test_duplicates_and_stray_accounting(self):
        collector = RoundCollector()
        collector.arm(1, {0: 1})
        collector.add(_frame(1, 0, 0))
        collector.add(_frame(1, 0, 0))          # retransmit dup
        assert collector.duplicates == 1
        collector.add(_frame(0, 0, 0))          # stale round
        collector.add(_frame(1, 9, 0))          # unknown run
        collector.add(_frame(1, 0, 5))          # seq past expected
        assert collector.stray == 3
        assert collector.complete

    def test_ingest_counts_malformed(self):
        collector = RoundCollector()
        collector.arm(0, {0: 1})
        collector.ingest(b"not a frame")
        assert collector.malformed == 1
        collector.ingest(encode_cell_frame(_frame(0, 0, 0)))
        assert collector.complete


def _drive(fabric, rounds=3):
    for r in range(rounds):
        fabric.emit("client-0", "sp-0", b"\x01" * 64, kind="data")
        fabric.emit_repeated("sp-0", "mix-0", b"\x02" * 128, 1,
                             kind="up")
        fabric.emit_repeated("mix-0", "sp-0", b"\x03" * 128, 5,
                             kind="down")
        fabric.flush_round(r)
    return fabric.finalize()


class TestUdpFabric:
    def test_loopback_round_trip(self):
        fabric = UdpFabric(seed=1, interval=0.02)
        stats = _drive(fabric)
        assert fabric.cells_carried == 21
        assert stats["cells"] == 21
        assert stats["link_stats"][("mix-0", "sp-0")] == \
            (15, 15 * (128 + IP_UDP_HEADER_BYTES))
        # The observer saw every cell at its round's *virtual* time.
        times = {obs.time for obs in fabric.observer.observations}
        assert times == {0.0, 0.02, 0.04}
        report = fabric.net_report()
        assert report["transport"] == "udp"
        assert report["endpoints"] == 3
        assert report["datagrams_sent"] >= 21
        assert report["datagrams_received"] >= 21
        assert report["announcements"] == 3
        # finalize() is re-entrant: nothing flushed since, nothing
        # published, and the side channel survives the teardown.
        assert fabric.finalize()["cells"] == 0
        assert fabric.net_report() == report

    def test_empty_rounds_need_no_network(self):
        fabric = UdpFabric(seed=1)

        class RoundCounter:
            rounds = 0

            def record_round_runs(self, time, keys, sizes, counts):
                RoundCounter.rounds += 1
                assert keys == [] and sizes == [] and counts == []

        fabric.add_tap(RoundCounter())
        fabric.flush_round(0)
        fabric.flush_round(1)
        stats = fabric.finalize()
        # Taps are offered every round, even empty ones — but no
        # socket was ever opened for them.
        assert RoundCounter.rounds == 2
        assert stats["cells"] == 0
        assert fabric.net_report()["endpoints"] == 0

    def test_a_round_that_never_lands_raises_and_finalize_closes(
            self, monkeypatch):
        # Every datagram is lost, and the barrier gives up after two
        # short attempts instead of forty.
        monkeypatch.setattr(transport, "BARRIER_MAX_ATTEMPTS", 2)
        monkeypatch.setattr(transport, "BARRIER_TIMEOUT_S", 0.01)
        monkeypatch.setattr(transport._NodeProtocol, "datagram_received",
                            lambda self, data, addr: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fabric = UdpFabric(seed=1)
            fabric.emit("client-0", "sp-0", b"\x01" * 64)
            fabric.emit_repeated("sp-0", "mix-0", b"\x02" * 128, 3)
            with pytest.raises(RuntimeError,
                               match=r"^round 7: 4 datagrams still "
                                     r"missing after 2 barrier "
                                     r"attempts$"):
                fabric.flush_round(7)
            endpoints = list(fabric._endpoints.values())
            introducer = fabric.introducer
            assert len(endpoints) == 3
            fabric.finalize()
            assert all(protocol.transport.is_closing()
                       for protocol in endpoints)
            assert introducer._transport is None
            assert fabric._loop is None
            report = fabric.net_report()
            del fabric, endpoints, introducer
            gc.collect()
        assert report["barrier_attempts"] == 2
        assert report["retransmits"] == 2 * 4
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []
