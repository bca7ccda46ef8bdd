"""The full Herd protocol over the simulated wide-area network.

:mod:`repro.simulation.deployment` measures latency with abstract
relays; :mod:`repro.simulation.testbed` runs the real protocol
synchronously.  This module combines them: real mixes, real circuits,
real layered encryption — with every cell carried as a datagram across
:mod:`repro.netsim` links whose delays come from the EC2 geography, and
with per-hop chaff-clock alignment.  The call's
:class:`~repro.core.rendezvous.CallSession` seals and opens each frame;
every mix hop in between is one event on the wire.

The result is an executable end-to-end claim: an actual encrypted Herd
call between two continents, timed on the wire, decrypting correctly at
the far end.

Wire format of a cell datagram (inside :class:`~repro.netsim.packet
.Packet` payloads)::

    1 byte   type: F(orward) / B(ackward) / X(rendezvous transfer)
    8 bytes  circuit id
    8 bytes  sequence number
    N bytes  cell (fixed CELL_SIZE) or raw e2e payload (type X)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.rendezvous import CallSession
from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.topology import DEFAULT_ACCESS_JITTER, GeoTopology, \
    default_topology
from repro.simulation.deployment import chaff_wait
from repro.simulation.testbed import HerdTestbed, build_testbed

_HEADER = struct.Struct("<cQQ")

_FORWARD = b"F"
_BACKWARD = b"B"
_TRANSFER = b"X"


def _encode(kind: bytes, circuit_id: int, seq: int,
            data: bytes) -> bytes:
    return _HEADER.pack(kind, circuit_id, seq) + data


def _decode(payload: bytes) -> Tuple[bytes, int, int, bytes]:
    kind, circuit_id, seq = _HEADER.unpack(payload[:_HEADER.size])
    return kind, circuit_id, seq, payload[_HEADER.size:]


@dataclass
class WiredConfig:
    """Knobs of the wired deployment."""

    access_jitter_s: float = DEFAULT_ACCESS_JITTER
    #: Chaffed links emit at frame ticks; relays align to the next one.
    chaff_interval_s: float = 0.02
    mix_processing_s: float = 0.0008
    seed: int = 20150817


@dataclass
class Delivery:
    """One voice frame's arrival at the receiving client."""

    sent_at: float
    received_at: float
    frame: bytes

    @property
    def owd_ms(self) -> float:
        return (self.received_at - self.sent_at) * 1000.0


class WiredHerd:
    """A Herd testbed whose data plane runs on the network simulator."""

    def __init__(self, zone_sites: Optional[Dict[str, str]] = None,
                 mixes_per_zone: int = 2,
                 config: Optional[WiredConfig] = None):
        self.config = config or WiredConfig()
        zone_sites = zone_sites or {"zone-EU": "dc-eu",
                                    "zone-NA": "dc-na"}
        self.bed: HerdTestbed = build_testbed(
            [(z, s, mixes_per_zone) for z, s in zone_sites.items()],
            seed=self.config.seed)
        self.topology: GeoTopology = default_topology()
        self.loop = EventLoop(seed=self.config.seed)
        self._zone_site = dict(zone_sites)
        self.nodes: Dict[str, Node] = {}
        self._chaff_phase: Dict[str, float] = {}
        self._calls_by_circuit: Dict[int, Tuple["WiredCall", str]] = {}
        self._wire_mixes()

    # -- wiring ------------------------------------------------------------------

    def _site_of_mix(self, mix_id: str) -> str:
        zone = self.bed.mixes[mix_id].zone.zone_id
        return self._zone_site[zone]

    def _wire_mixes(self) -> None:
        for mix_id in self.bed.mixes:
            node = Node(mix_id, self.loop)
            node.on_packet(lambda p, m=mix_id: self._at_mix(m, p))
            self.nodes[mix_id] = node
            self._chaff_phase[mix_id] = (
                self.loop.rng.random() * self.config.chaff_interval_s)
        mix_ids = sorted(self.bed.mixes)
        for i, a in enumerate(mix_ids):
            for b in mix_ids[i + 1:]:
                Link(self.loop, self.nodes[a], self.nodes[b],
                     one_way_delay=self.topology.one_way_delay(
                         self._site_of_mix(a), self._site_of_mix(b)))

    def add_client(self, client_id: str, zone_id: str,
                   region: Optional[str] = None) -> None:
        """Join a client and wire its access link to its entry mix."""
        client = self.bed.add_client(client_id, zone_id)
        self.bed.ready_for_calls(client_id)
        node = Node(client_id, self.loop)
        node.on_packet(lambda p, c=client_id: self._at_client(c, p))
        self.nodes[client_id] = node
        self._chaff_phase[client_id] = (
            self.loop.rng.random() * self.config.chaff_interval_s)
        site = self._zone_site[zone_id]
        region = region or self.bed.mixes[client.mix_id].zone \
            .config.site_id.split("-")[1].upper()
        # Wire the client to every mix on its circuit's entry (cells
        # enter and leave through the entry mix only).
        Link(self.loop, node, self.nodes[client.mix_id],
             one_way_delay=self.topology.access_delay(site, region),
             jitter_std=self.config.access_jitter_s)

    # -- chaff clock --------------------------------------------------------------

    def _aligned_send(self, from_name: str, to_name: str,
                      payload: bytes, processing: float = 0.0) -> None:
        """Send at the next chaff tick of ``from_name``'s link clock —
        payload cells replace chaff packets, they never jump the
        schedule (§3.4.1)."""
        wait = chaff_wait(self.loop.now + processing,
                          self._chaff_phase[from_name],
                          self.config.chaff_interval_s)
        packet = Packet(payload, from_name, to_name, kind="voip")
        if from_name == to_name:
            # A rendezvous mix spliced to itself (both parties chose the
            # same mix): local hand-off, no wire.
            self.loop.schedule(processing,
                               lambda: self.nodes[to_name].receive(
                                   packet))
            return
        self.loop.schedule(processing + wait,
                           lambda: self.nodes[from_name].send(to_name,
                                                              packet))

    # -- protocol handlers -----------------------------------------------------------

    def _at_mix(self, mix_id: str, packet: Packet) -> None:
        mix = self.bed.mixes[mix_id]
        kind, circuit_id, seq, data = _decode(packet.payload)
        if kind == _FORWARD:
            action = mix.forward_cell(circuit_id, data, seq)
        elif kind == _TRANSFER:
            action = mix.inject_backward(circuit_id, data, seq)
        elif kind == _BACKWARD:
            action = mix.backward_cell(circuit_id, data, seq)
        else:
            raise ValueError(f"unknown wire type {kind!r}")
        # Hand the cell on at this mix's next chaff tick.
        if action.kind == "to_peer_mix":
            kind, circuit_id = _TRANSFER, action.peer_circuit
        elif action.kind == "backward":
            kind = _BACKWARD
        elif action.kind != "forward":
            return  # "deliver" at an unspliced exit: nothing to hand on
        self._aligned_send(mix_id, action.peer,
                           _encode(kind, circuit_id, seq, action.data),
                           self.config.mix_processing_s)

    def _at_client(self, client_id: str, packet: Packet) -> None:
        kind, circuit_id, seq, data = _decode(packet.payload)
        if kind != _BACKWARD:
            return
        entry = self._calls_by_circuit.get(circuit_id)
        if entry is None:
            return
        call, side = entry
        call._deliver(side, seq, data, self.loop.now)

    # -- calls -------------------------------------------------------------------

    def call(self, caller_id: str, callee_id: str) -> "WiredCall":
        """Establish the call (control plane) and return the wired
        voice session (data plane over the simulator)."""
        session = self.bed.call(caller_id, callee_id)
        call = WiredCall(self, session)
        self._calls_by_circuit[session.caller.circuit.circuit_id] = \
            (call, "caller")
        self._calls_by_circuit[session.callee.circuit.circuit_id] = \
            (call, "callee")
        return call


class WiredCall:
    """One established call whose voice frames ride the simulator."""

    def __init__(self, net: WiredHerd, session: CallSession):
        self.net = net
        self.session = session
        self._sent_at: Dict[Tuple[str, int], float] = {}
        self.deliveries: Dict[str, List[Delivery]] = {
            "caller": [], "callee": []}

    def send_voice(self, direction: str, frame: bytes,
                   at: Optional[float] = None) -> None:
        """Seal one voice frame now and schedule it; it arrives via the
        simulator."""
        seq, cell = self.session.seal(direction, frame)
        if direction == "caller_to_callee":
            sender, receive_side = self.session.caller, "callee"
        else:
            sender, receive_side = self.session.callee, "caller"
        payload = _encode(_FORWARD, sender.circuit.circuit_id, seq, cell)

        def emit():
            self._sent_at[(receive_side, seq)] = self.net.loop.now
            self.net._aligned_send(sender.client.client_id,
                                   sender.circuit.entry_mix, payload)
        when = at if at is not None else self.net.loop.now
        self.net.loop.schedule_at(when, emit)

    def _deliver(self, side: str, seq: int, cell: bytes,
                 now: float) -> None:
        direction = ("caller_to_callee" if side == "callee"
                     else "callee_to_caller")
        frame = self.session.open(direction, seq, cell)
        sent_at = self._sent_at.pop((side, seq), now)
        self.deliveries[side].append(
            Delivery(sent_at=sent_at, received_at=now, frame=frame))

    def owd_ms(self, side: str) -> List[float]:
        return [d.owd_ms for d in self.deliveries[side]]
