"""Simulated network endpoints.

A :class:`Node` is anything with a name and a packet handler: a Herd
client, superpeer, mix, or directory.  Nodes are attached to
:class:`~repro.netsim.link.Link` objects; the link delivers packets by
invoking :meth:`Node.receive`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.netsim.packet import Packet


class Node:
    """A named endpoint attached to an event loop.

    Subclasses (or composition users) register a handler with
    :meth:`on_packet`; unhandled packets are counted and dropped, which
    surfaces wiring bugs in tests via ``unhandled_packets``.
    """

    def __init__(self, name: str, loop):
        self.name = name
        self.loop = loop
        self._handler: Optional[Callable[[Packet], None]] = None
        self.links: Dict[str, "object"] = {}
        self.packets_received = 0
        self.bytes_received = 0
        self.unhandled_packets = 0

    def on_packet(self, handler: Callable[[Packet], None]) -> None:
        """Register the function invoked for each delivered packet."""
        self._handler = handler

    def attach_link(self, peer_name: str, link) -> None:
        """Record a link to a peer for :meth:`send` lookups."""
        self.links[peer_name] = link

    def send(self, peer_name: str, packet: Packet) -> None:
        """Transmit ``packet`` over the attached link to ``peer_name``."""
        link = self.links.get(peer_name)
        if link is None:
            raise KeyError(f"{self.name} has no link to {peer_name}")
        link.transmit(self, packet)

    def receive(self, packet: Packet) -> None:
        """Called by links on delivery."""
        self.packets_received += 1
        self.bytes_received += packet.size
        if self._handler is not None:
            self._handler(packet)
        else:
            self.unhandled_packets += 1

    def __repr__(self) -> str:
        return f"Node({self.name})"
