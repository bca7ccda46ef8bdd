"""Round-synchronous execution on the network simulator.

Covers the :mod:`repro.netsim.rounds` ``RoundScheduler`` and the
determinism contract that motivated moving packet-id allocation off a
module global and onto the :class:`~repro.netsim.engine.EventLoop`.
"""

import warnings

import pytest

from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.rounds import RoundScheduler


def _pair(loop, **link_kwargs):
    a, b = Node("a", loop), Node("b", loop)
    link = Link(loop, a, b, **link_kwargs)
    return a, b, link


class TestRoundScheduler:
    def test_rounds_fire_at_interval_times(self):
        loop = EventLoop()
        sched = RoundScheduler(loop, 0.02)
        fired = []
        sched.on_round(lambda r: fired.append((r, loop.now)))
        sched.run_rounds(3)
        assert fired == [(0, 0.0), (1, pytest.approx(0.02)),
                         (2, pytest.approx(0.04))]
        assert sched.rounds_run == 3

    def test_one_heap_event_per_round(self):
        loop = EventLoop()
        sched = RoundScheduler(loop, 0.02)
        sched.on_round(lambda r: None)
        sched.run_rounds(10)
        assert loop.events_processed == 10

    def test_handlers_run_in_registration_order(self):
        loop = EventLoop()
        sched = RoundScheduler(loop, 1.0)
        order = []
        sched.on_round(lambda r: order.append("first"))
        sched.on_round(lambda r: order.append("second"))
        sched.run_round()
        assert order == ["first", "second"]

    def test_time_of(self):
        sched = RoundScheduler(EventLoop(), 0.5, start=1.0)
        assert sched.time_of(0) == 1.0
        assert sched.time_of(4) == 3.0


class TestPacketIdDeterminism:
    """Packet ids are loop-local: two identically-seeded runs in ONE
    process are byte-identical (the old module-global counter kept
    counting across runs)."""

    def _run(self):
        loop = EventLoop(seed=5)
        a, b, link = _pair(loop)
        ids = []
        b.on_packet(lambda p: ids.append(p.packet_id))
        for payload in (b"x", b"y", b"z"):
            link.transmit(a, Packet(payload, "a", "b"))
        loop.run()
        return ids

    def test_two_runs_one_process_identical_ids(self):
        assert self._run() == self._run() == [0, 1, 2]

    def test_explicit_ids_are_not_restamped(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        got = []
        b.on_packet(lambda p: got.append(p.packet_id))
        link.transmit(a, Packet(b"x", "a", "b", packet_id=99))
        loop.run()
        assert got == [99]

    def test_call_ids_are_manager_local(self):
        # Same regression at the core layer: MixCallManager used a
        # module-global call-id counter; GRANTs of a second seeded run
        # must carry the same ids as the first.
        from repro.simulation.live import LiveZone

        def call_ids():
            zone = LiveZone(n_clients=4, n_channels=2, seed=3)
            zone.start_call("client-0", "client-1")
            zone.run(6)
            return sorted(c.call_id for c in zone.manager.calls.values())

        first = call_ids()
        assert first and first == call_ids()

    def test_per_packet_transmit_is_warning_free(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            link.transmit(a, Packet(b"x", "a", "b"))
            loop.run()
