"""Bidirectional network links with delay, bandwidth, jitter, and loss.

Links model the paths Herd traffic traverses: intra-data-center hops
(sub-millisecond), inter-region backbone paths (EC2 RTT matrix), and
last-mile access links for clients and superpeers.  The delay model is

    one_way_delay + serialization(size / bandwidth) + jitter ~ N(0, σ)

with independent random loss.  Observers registered on a link see every
transmitted packet's (time, size, direction) — the adversary's view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netsim.packet import Packet


@dataclass
class LinkStats:
    """Per-direction transmission counters."""

    packets: int = 0
    bytes: int = 0
    dropped: int = 0


class Link:
    """A bidirectional point-to-point link between two nodes.

    Parameters
    ----------
    loop:
        The :class:`~repro.netsim.engine.EventLoop` used for delivery
        scheduling and randomness.
    a, b:
        The two :class:`~repro.netsim.node.Node` endpoints.
    one_way_delay:
        Propagation delay, seconds.
    bandwidth_bps:
        Link capacity in *bytes* per second; ``None`` means unlimited
        (no serialization delay).
    loss_rate:
        Independent drop probability per packet.
    jitter_std:
        Standard deviation of Gaussian delay jitter, seconds (clamped so
        total delay never goes negative).
    """

    def __init__(self, loop, a, b, one_way_delay: float = 0.0,
                 bandwidth_bps: Optional[float] = None,
                 loss_rate: float = 0.0, jitter_std: float = 0.0,
                 fifo: bool = False):
        if one_way_delay < 0:
            raise ValueError("one_way_delay must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if fifo and bandwidth_bps is None:
            raise ValueError("fifo queueing requires a bandwidth")
        self.loop = loop
        self.a = a
        self.b = b
        self.one_way_delay = one_way_delay
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        self.jitter_std = jitter_std
        #: With fifo=True the link models a transmit queue: packets
        #: serialize one after another per direction, so bursts queue
        #: behind each other instead of overlapping.
        self.fifo = fifo
        self._tx_free_at = {a.name: 0.0, b.name: 0.0}
        self.stats = {a.name: LinkStats(), b.name: LinkStats()}
        self._observers: List = []
        a.attach_link(b.name, self)
        b.attach_link(a.name, self)

    def add_observer(self, observer) -> None:
        """Attach an observer; it sees (time, size, src, dst) for every
        packet offered to the link (including ones later dropped — a
        wire tap cannot distinguish a dropped packet from a delivered
        one, so it sees the transmission attempt)."""
        self._observers.append(observer)

    def other(self, node):
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of this link")

    def _delay_for(self, packet: Packet, sender_name: str) -> float:
        delay = self.one_way_delay
        if self.bandwidth_bps is not None:
            serialization = packet.size / self.bandwidth_bps
            if self.fifo:
                # Wait for the transmitter to drain earlier packets.
                start = max(self.loop.now,
                            self._tx_free_at[sender_name])
                finish = start + serialization
                self._tx_free_at[sender_name] = finish
                delay += finish - self.loop.now
            else:
                delay += serialization
        if self.jitter_std > 0:
            delay += abs(self.loop.rng.gauss(0.0, self.jitter_std))
        return delay

    def transmit(self, sender, packet: Packet) -> None:
        """Send ``packet`` from ``sender`` to the other endpoint: one
        scheduled delivery event per packet."""
        receiver = self.other(sender)
        packet.sent_at = self.loop.now
        if packet.packet_id is None:
            packet.packet_id = self.loop.next_packet_id()
        stats = self.stats[sender.name]
        for obs in self._observers:
            obs.record(self.loop.now, packet, sender.name, receiver.name)
        if self.loss_rate > 0 and self.loop.rng.random() < self.loss_rate:
            stats.dropped += 1
            return
        stats.packets += 1
        stats.bytes += packet.size
        self.loop.schedule(self._delay_for(packet, sender.name),
                           lambda: receiver.receive(packet))
