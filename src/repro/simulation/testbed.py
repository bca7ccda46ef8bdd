"""In-memory Herd deployments for tests, examples, and benchmarks.

:class:`HerdTestbed` wires together every protocol object of
:mod:`repro.core` — zones, directories, mixes, superpeers, clients —
into a working deployment that can join clients, build circuits,
register rendezvous, and place real end-to-end encrypted calls, all in
one process.  This is the programmatic equivalent of the paper's EC2
deployment, minus the wide-area network (which
:mod:`repro.simulation.deployment` models separately).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.channel import CHANNEL_CAPACITY
from repro.core.client import HerdClient
from repro.core.directory import ZoneDirectory
from repro.core.join import join_zone
from repro.core.mix import Mix
from repro.core.rendezvous import CallSession, RendezvousService
from repro.core.superpeer import SuperPeer
from repro.core.zone import TrustZone, ZoneConfig
from repro.crypto.pki import RootOfTrust


@dataclass
class HerdTestbed:
    """A complete in-memory Herd deployment."""

    root: RootOfTrust
    rng: random.Random
    zones: Dict[str, TrustZone] = field(default_factory=dict)
    directories: Dict[str, ZoneDirectory] = field(default_factory=dict)
    mixes: Dict[str, Mix] = field(default_factory=dict)
    superpeers: Dict[str, SuperPeer] = field(default_factory=dict)
    clients: Dict[str, HerdClient] = field(default_factory=dict)
    service: Optional[RendezvousService] = None

    def add_zone(self, zone_id: str, site_id: str,
                 n_mixes: int = 2) -> TrustZone:
        """Create a zone with its directory and mixes."""
        zone = TrustZone(ZoneConfig(zone_id=zone_id, site_id=site_id))
        directory = ZoneDirectory(zone, self.root, self.rng)
        self.zones[zone_id] = zone
        self.directories[zone_id] = directory
        for i in range(n_mixes):
            mix_id = f"{zone_id}/mix-{i}"
            self.mixes[mix_id] = Mix(mix_id, directory, self.rng)
        self.service = RendezvousService(self.directories, self.mixes,
                                         self.rng)
        return zone

    def add_superpeer(self, sp_id: str, mix_id: str,
                      channels: Sequence[int]) -> SuperPeer:
        """Attach an SP to a mix, hosting the given channels."""
        sp = SuperPeer(sp_id, mix_id)
        for ch in channels:
            sp.host_channel(ch, [])
        self.superpeers[sp_id] = sp
        return sp

    def add_client(self, client_id: str, zone_id: str, k: int = 3,
                   via_superpeers: bool = False) -> HerdClient:
        """Create and join a client (direct link, or via SPs)."""
        client = HerdClient(client_id, zone_id, rng=self.rng, k=k)
        if via_superpeers:
            self._make_room(zone_id, k)
        join_zone(client, self.directories[zone_id], self.mixes,
                  superpeers=self.superpeers if via_superpeers else None,
                  rng=self.rng)
        self.clients[client_id] = client
        return client

    def _make_room(self, zone_id: str, k: int) -> None:
        """The testbed is the zone's administrator (§3.6.3): before a
        join via SPs, a mix with fewer than ``k`` channels that can
        take a member opens more, each on its SP hosting the fewest.
        :func:`join_zone` itself still refuses a full zone."""
        for mix in self.mixes.values():
            if mix.zone.zone_id != zone_id or not mix.channels:
                continue
            short = k
            for channel in mix.channels.values():
                if channel.member_count() < CHANNEL_CAPACITY:
                    short -= 1
                    if short <= 0:
                        break
            if short <= 0:
                continue
            hosts = [sp for sp in self.superpeers.values()
                     if sp.mix_id == mix.mix_id]
            for _ in range(short if hosts else 0):
                host = min(hosts, key=lambda sp: len(sp.channel_clients))
                host.host_channel(mix.open_channel(), [])

    def ready_for_calls(self, client_id: str) -> HerdClient:
        """Build the client's standing circuit and publish rendezvous."""
        client = self.clients[client_id]
        self.service.build_standing_circuit(client)
        self.service.register_callee(client)
        return client

    def call(self, caller_id: str, callee_id: str) -> CallSession:
        """Place a call between two ready clients."""
        caller = self.clients[caller_id]
        callee = self.clients[callee_id]
        return self.service.establish_call(caller, callee.certificate,
                                           callee)


def build_testbed(zone_specs: Optional[Sequence[Tuple[str, str, int]]]
                  = None, *, seed: int = 20150817) -> HerdTestbed:
    """Build a testbed; ``zone_specs`` is a list of
    (zone_id, site_id, n_mixes), defaulting to EU + NA with 2 mixes
    each.  ``seed`` is keyword-only."""
    rng = random.Random(seed)
    bed = HerdTestbed(root=RootOfTrust(rng), rng=rng)
    for zone_id, site_id, n_mixes in (zone_specs or
                                      [("zone-EU", "dc-eu", 2),
                                       ("zone-NA", "dc-na", 2)]):
        bed.add_zone(zone_id, site_id, n_mixes)
    return bed
