"""A live, round-based Herd zone: the full SP data plane in motion.

Runs one zone's complete data path at codec-frame granularity, with
every mechanism of §3.4 and §3.6 active each round.  :class:`LiveZone`
schedules the roles' phases, in this order on every engine:

* every client (:class:`~repro.simulation.clientpool.ClientPool`)
  emits one encrypted packet + manifest per attached channel (payload
  only on its call's channel, chaff elsewhere),
* each SP XOR-combines its channels' packets and forwards them with
  the manifest lists,
* the mix (:class:`~repro.core.callmanager.MixCallManager`) decrypts
  manifests, decodes the XOR rounds, reacts to signaling bits (RANKING
  allocation + GRANT), routes recovered voice cells to their
  destination call, and produces the downstream round (GRANT /
  INCOMING / VOIP / chaff),
* SPs broadcast downstream packets to every channel member; each
  client trial-decrypts everything.

Who sits in which slot of which channel, with which attachment and
key, changes only when membership does ("clients connect to Herd
continuously, regardless of call activity"), so a round reads it from
a standing :class:`ChannelRoster` per channel instead of looking it up
per member per round; a roster is rebuilt when the membership state it
was read off — the SP's member list, the members' attachments — has
moved on (DESIGN.md §15 "Standing rosters").

Calls between two clients of the zone loop through the mix
(caller channel → mix → callee channel), which is exactly the intra-mix
segment of a Herd circuit; the integration test splices this onto the
inter-mix rendezvous path.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import execution as execution_registry
from repro.core.transport import CellTransport
from repro.core.callmanager import CallState, ClientCallAgent, \
    FailoverRecord, MixCallManager
from repro.core.join import join_zone
from repro.core.client import ChannelAttachment, HerdClient
from repro.crypto.chacha20 import key_words
from repro.crypto.keys import SessionKey
from repro.core.shedding import LoadShedder
from repro.simulation.clientpool import ClientPool, LiveClient
from repro.simulation.roundsync import DEFAULT_ROUND_INTERVAL_S
from repro.simulation.testbed import HerdTestbed, build_testbed


class CallRefused(RuntimeError):
    """:meth:`LiveZone.start_call` was asked for a call that cannot
    start: a party is already in a call (or being rung), or the
    caller called itself.  Raised before any state changes."""


class RosterEntry(NamedTuple):
    """What a round needs of one channel member."""

    live: LiveClient
    attachment: ChannelAttachment
    agent: ClientCallAgent
    numeric_id: int
    #: The client↔mix session key ``s``.
    key: SessionKey


class ChannelRoster:
    """One channel's members as a round needs them, in slot order.

    Everything here follows from who is attached where, so it is
    looked up when that changes, not every round: a roster remembers
    the membership state it was read off — the SP's
    ``membership_epoch`` and every member's ``attachment_epoch`` — and
    :meth:`is_current` compares it with the live values, which
    whoever changes membership bumps (``simulation/churn.py``, the
    scenario engine and the join protocol all do, without knowing
    about rosters).  A round runs on its columns, a row a member
    (DESIGN.md §15 "Roster columns"): each party's key words — the
    clients' and the mix's copy, never one for both — and the slots."""

    __slots__ = ("members", "entries", "numerics", "attachments",
                 "clients", "client_keys", "mix_keys", "slots", "rows",
                 "sp_id", "up_links", "down_links", "_sp", "_built_from")

    def __init__(self, sp, channel_id: int,
                 entries: Tuple[RosterEntry, ...]):
        #: Client ids, as the SP lists them.
        self.members = tuple(sp.channel_clients[channel_id])
        self.entries = entries
        self.numerics = [entry.numeric_id for entry in entries]
        self.attachments = [entry.attachment for entry in entries]
        self.clients = [entry.live.client for entry in entries]
        self.client_keys = key_words(
            [client.session_key.key for client in self.clients])
        self.mix_keys = key_words([entry.key.key for entry in entries])
        self.slots = np.array([a.slot for a in self.attachments],
                              dtype=np.int64)
        #: Client id → row.
        self.rows = {client_id: row
                     for row, client_id in enumerate(self.members)}
        self.sp_id = sp.sp_id
        #: The members' (src, dst) links to the SP and from it.
        self.up_links = [(client_id, sp.sp_id) for client_id in self.members]
        self.down_links = [(sp.sp_id, client_id)
                           for client_id in self.members]
        self._sp = sp
        self._built_from = self._membership_state()

    def _membership_state(self) -> Tuple[int, List[int]]:
        return self._sp.membership_epoch, [
            client.attachment_epoch for client in self.clients]

    def is_current(self) -> bool:
        return self._membership_state() == self._built_from


class LiveZone:
    """One zone running live rounds.

    All parameters are keyword-only (positional forms were removed
    with the PR-3 deprecation cycle).  ``execution`` is any engine
    name registered with :mod:`repro.execution`."""

    def __init__(self, *, n_clients: int = 12, n_channels: int = 4,
                 k: int = 2, n_sps: int = 1,
                 seed: int = 20150817,
                 bed: Optional[HerdTestbed] = None,
                 zone_id: str = "zone-EU",
                 client_prefix: str = "client",
                 execution: str = "event"):
        if n_sps < 1:
            raise ValueError("need at least one superpeer")
        if n_sps > n_channels:
            raise ValueError("cannot have more SPs than channels")
        plane = execution_registry.resolve(execution)
        self.execution = plane.name
        self.transport = plane.transport
        columns = plane.zone_mode == "batch"
        self.seed = seed
        #: Optional wire plane (see :meth:`attach_wire`): when set,
        #: every round's cells are offered to tapped netsim links
        #: (``"sim"`` transports) or carried as real loopback
        #: datagrams (the ``asyncio`` plane) under the zone's
        #: execution engine.
        self.wire: Optional[CellTransport] = None
        if bed is None:
            bed = build_testbed([(zone_id, "dc-eu", 1)], seed=seed)
        self.bed: HerdTestbed = bed
        self.zone_id = zone_id
        self.mix = self.bed.mixes[f"{zone_id}/mix-0"]
        self.mix.configure_channels(n_channels)
        # Channels are partitioned round-robin across the zone's SPs
        # (the paper runs "100 SPs per mix"; Fig. 3 shows one channel
        # per SP as the extreme case).
        self.sps = [self.bed.add_superpeer(
            f"{zone_id}/sp-{i}", self.mix.mix_id,
            channels=range(i, n_channels, n_sps))
            for i in range(n_sps)]
        self._sp_of_channel = {ch: sp for sp in self.sps
                               for ch in sp.channel_clients}
        #: channel → its roster (see :meth:`_roster`).
        self._rosters: Dict[int, ChannelRoster] = {}
        self.manager = MixCallManager(self.mix, random.Random(seed),
                                      columns=columns)
        self.pool = ClientPool(columns)
        #: client id → client (the pool's).
        self.clients: Dict[str, LiveClient] = self.pool.clients
        self.round_index = 0
        #: Overload admission control (None = no shedding).  Installed
        #: by :meth:`set_overload` for an OVERLOAD fault window; totals
        #: survive the window in :attr:`shed_stats`.
        self.shedder: Optional[LoadShedder] = None
        #: Cumulative graceful-degradation accounting across windows.
        self.shed_stats: Dict[str, int] = {
            "windows": 0, "cells_deferred": 0, "cells_admitted": 0}
        #: Optional observability hook (see :class:`repro.obs
        #: .instrument.LiveZoneHook`): call-setup spans and round
        #: progress, installed by ``Herdscope.attach_live_zone``.
        self.obs = None
        for i in range(n_clients):
            self._add_client(f"{client_prefix}-{i}", k)

    def _add_client(self, client_id: str, k: int) -> LiveClient:
        client = HerdClient(client_id, self.zone_id, rng=self.bed.rng,
                            k=k)
        zone_sps = {sp_id: sp for sp_id, sp
                    in self.bed.superpeers.items()
                    if sp.mix_id == self.mix.mix_id}
        join_zone(client, self.bed.directories[self.zone_id],
                  {self.mix.mix_id: self.mix}, superpeers=zone_sps,
                  rng=self.bed.rng)
        slots = {a.channel_id: a.slot for a in client.attachments}
        self.manager.register_client(client_id, client.numeric_id,
                                     slots)
        self.bed.clients[client_id] = client
        return self.pool.add(client)

    # -- call control ----------------------------------------------------------

    def start_call(self, caller_id: str, callee_id: str) -> None:
        """The caller signals; once its GRANT has gone out, the mix
        rings the callee and bridges the two legs
        (:meth:`MixCallManager.pair`).  Raises
        :class:`CallRefused` when the caller calls itself or either
        party already has a call leg, so no call takes over another's
        voice."""
        caller = self.clients[caller_id]
        callee = self.clients[callee_id]
        if caller is callee:
            raise CallRefused(f"{caller_id} cannot call itself")
        for party in (caller, callee):
            if party.numeric_id in self.manager.peers:
                raise CallRefused(
                    f"{party.client.client_id} is already in a call")
        caller.agent.start_outgoing()
        self.manager.pair(caller.numeric_id, callee.numeric_id)
        if self.obs is not None:
            self.obs.call_started(caller_id, callee_id)

    def hang_up(self, client_id: str) -> None:
        """End the client's call and its peer's.  Voice either leg
        queued for the ended call is dropped, never carried into the
        next one."""
        for numeric in self.manager.unpair(self.clients[client_id]
                                           .numeric_id):
            leg = self.pool.by_numeric[numeric]
            self.manager.end_call(numeric)
            self.pool.hang_up(leg)
            if self.obs is not None:
                self.obs.call_ended(leg.client.client_id)

    def say(self, client_id: str, cell: bytes) -> None:
        """Queue a voice cell for the client's active call."""
        self.pool.say(client_id, cell)

    # -- failures and mid-call failover (§3.6.4) -------------------------------

    def fail_superpeer(self, sp_id: str) -> List[FailoverRecord]:
        """Take one of the zone's SPs down mid-run.

        The bed-level failure (:func:`repro.simulation.churn.
        fail_superpeer`) sheds the dead attachments; the data plane
        then re-allocates every active call leg that was on one of the
        SP's channels to a surviving channel
        (the re-GRANT rides the next downstream round) and hangs up
        legs with nowhere to go — along with their peers.
        """
        from repro.simulation.churn import fail_superpeer as _fail_sp
        sp = next((s for s in self.sps if s.sp_id == sp_id), None)
        if sp is None:
            raise KeyError(f"superpeer {sp_id} is not part of this zone")
        _fail_sp(self.bed, sp_id)
        return self.absorb_superpeer_failure(sp)

    def absorb_superpeer_failure(self, sp) -> List[FailoverRecord]:
        """Data-plane half of an SP failure whose bed-level removal
        already happened (fault injector, blacklist reaction): stop
        running the SP's channels, fail the channels over at the call
        manager, and tear down dropped legs with their peers."""
        dead_channels = set(sp.channel_clients)
        if sp in self.sps:
            self.sps.remove(sp)
        for channel_id in dead_channels:
            self._sp_of_channel.pop(channel_id, None)
        records = self.manager.fail_channels(dead_channels)
        for record in records:
            if record.new_channel is None:
                live = self.pool.by_numeric.get(record.numeric_id)
                if live is not None:
                    self.hang_up(live.client.client_id)
        return records

    # -- overload & graceful degradation (§3.4.2) ------------------------------

    def set_overload(self, capacity_fraction: float,
                     sp_id: Optional[str] = None) -> LoadShedder:
        """Enter an overload window: from the next round on, each
        channel admits only ``capacity_fraction`` of its members'
        payload cells per round; the rest stay queued in the clients'
        outboxes (backpressure, not loss).  The wire image is
        unchanged — chaff replaces the deferred payload — so an
        adversary cannot see the overload (I6/I7)."""
        self.shedder = LoadShedder(capacity_fraction, sp_id=sp_id)
        self.shed_stats["windows"] += 1
        return self.shedder

    def clear_overload(self) -> None:
        """Leave the overload window; cumulative counts remain in
        :attr:`shed_stats`."""
        shedder = self.shedder
        if shedder is not None:
            self.shed_stats["cells_deferred"] += shedder.cells_deferred
            self.shed_stats["cells_admitted"] += shedder.cells_admitted
        self.shedder = None

    @property
    def cells_deferred(self) -> int:
        """Total payload cells deferred by shedding so far (including
        any still-open overload window)."""
        live = self.shedder.cells_deferred if self.shedder else 0
        return self.shed_stats["cells_deferred"] + live

    # -- the round engine ------------------------------------------------------

    def _rosters_of_round(self) -> Dict[int, ChannelRoster]:
        """Every served channel's roster, in channel order: what a
        round reads its members from, each checked once."""
        return {channel_id: self._roster(channel_id)
                for channel_id in sorted(self._sp_of_channel)}

    def _roster(self, channel_id: int) -> ChannelRoster:
        """The channel's roster: built on first use, and again when —
        and only when — the membership it was built from has changed
        (:meth:`ChannelRoster.is_current`).  Every per-member look-up
        of a round, on every engine, goes through here, once a round
        (:meth:`_rosters_of_round`)."""
        roster = self._rosters.get(channel_id)
        if roster is not None and roster.is_current():
            return roster
        sp = self._sp_of_channel[channel_id]
        numerics = self.mix.channels[channel_id].members
        entries = []
        for slot, client_id in enumerate(sp.channel_clients[channel_id]):
            live = self.clients[client_id]
            attachment = next(
                (a for a in live.client.attachments
                 if a.channel_id == channel_id), None)
            if attachment is None:
                raise RuntimeError(
                    f"client {client_id} is a member of channel "
                    f"{channel_id} at {sp.sp_id} but holds no "
                    "attachment for it")
            entries.append(RosterEntry(
                live, attachment, live.agent, numerics[slot],
                self.mix.client_keys[client_id]))
        roster = ChannelRoster(sp, channel_id, tuple(entries))
        self._rosters[channel_id] = roster
        return roster

    def step(self) -> None:
        """One codec-frame round (§3.6), the same phases on every
        engine: clients up, the SPs' XOR, the upstream cells on the
        wire, the mix, the SPs' broadcast and its cells, clients down.
        A role reads only what the phase before it emitted."""
        index, wire = self.round_index, self.wire
        rosters = self._rosters_of_round()
        sealed = self.pool.up(index, rosters,
                              self.manager.downstream_channels(),
                              self.shedder)
        by_sp: Dict[object, Dict[int, tuple]] = {}
        for channel_id, batch in sealed.items():
            by_sp.setdefault(self._sp_of_channel[channel_id], {})[
                channel_id] = batch
        ups = {up.channel_id: up for sp, batches in by_sp.items()
               for up in sp.process_round(index, batches)}
        channels = sorted(ups)
        if wire is not None:
            for channel_id in channels:
                wire.emit_each(rosters[channel_id].up_links,
                               sealed[channel_id][0], kind="up")
                wire.emit(rosters[channel_id].sp_id, self.mix.mix_id,
                          ups[channel_id].xor_packet, kind="xor")
        round_packets = self.manager.process_columns(index, [
            (channel_id, ups[channel_id].xor_packet,
             ups[channel_id].manifests, rosters[channel_id])
            for channel_id in channels])
        broadcasts = []
        for channel_id, packet in round_packets.items():
            sp = self._sp_of_channel[channel_id]
            if wire is not None:
                wire.emit(self.mix.mix_id, sp.sp_id, packet, kind="down")
            pairs = sp.broadcast_downstream(channel_id, packet)
            if wire is not None:
                wire.emit_each(rosters[channel_id].down_links,
                               [pkt for _, pkt in pairs], kind="bcast")
            broadcasts.append((channel_id, packet, pairs))
        for client_id, event in self.pool.down(index, rosters, broadcasts):
            if self.obs is not None:
                self.obs.client_event(client_id, event)
        if wire is not None:
            wire.flush_round(index)
        if self.obs is not None:
            self.obs.round_finished(index)
        self.round_index += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.step()

    # -- rate orchestration (§3.4.2) ---------------------------------------------

    def run_rate_epoch(self, epoch: int) -> Dict[str, int]:
        """Close a rate epoch: the mix reports its aggregate utilization
        to the zone directory, which returns the rates every link group
        must apply simultaneously.  In deployment this happens at hour
        scale; tests call it directly."""
        self.mix.report_utilization()
        return self.bed.directories[self.zone_id].run_epoch(epoch)

    # -- the wire plane ----------------------------------------------------------

    def attach_wire(self, observer=None,
                    interval: float = DEFAULT_ROUND_INTERVAL_S
                    ) -> CellTransport:
        """Materialize the zone's wire plane: from the next round on,
        every cell is offered to tapped netsim links under the zone's
        execution engine (per-cell events or per-round run tables —
        the tap records byte-identical streams under both), or — on
        the ``asyncio`` plane —
        physically transmitted as framed loopback UDP datagrams and
        tapped on receive (DESIGN.md §14).  The concrete
        :class:`~repro.core.transport.CellTransport` resolves through
        :func:`repro.execution.create_wire_fabric`; this module
        imports neither implementation's socket machinery.  The
        adversary observes via ``fabric.observer``; further taps
        subscribe through ``fabric.add_tap``
        (:mod:`repro.netsim.taps`)."""
        self.wire = execution_registry.create_wire_fabric(
            self.execution, seed=self.seed, interval=interval,
            observer=observer)
        return self.wire

    def tap_wire(self, tapped: bool,
                 interval: float = DEFAULT_ROUND_INTERVAL_S
                 ) -> Optional[CellTransport]:
        """Attach the wire plane a run needs, ticking every
        ``interval`` seconds (the run's own round clock): always on the
        real-network plane (the datagrams *are* the transport), and on
        the simulator planes only when an adversary taps it."""
        if tapped or self.transport == "udp":
            return self.attach_wire(interval=interval)
        return None

    def wire_readout(self, tapped: bool
                     ) -> Tuple[Optional[Dict[str, object]],
                                Optional[Dict[str, object]]]:
        """Finalize the wire plane and read it out as
        ``(wiretap, net)``.

        ``wiretap`` (``None`` unless ``tapped``) is the adversary's
        view as plain ``(time, size, src, dst)`` tuples, byte-identical
        across engines (the equivalence contract), beside the engine
        cost stats that are allowed to differ.  ``net`` is the
        real-network plane's host-socket side channel
        (:meth:`~repro.core.transport.CellTransport.net_report`; never
        part of metrics, traces, or any determinism key), ``None`` on
        the simulator planes.  Both are ``None`` without a wire."""
        wire = self.wire
        if wire is None:
            return None, None
        wire.finalize()
        wiretap = None
        if tapped:
            wiretap = {
                "observations": [(o.time, o.size, o.src, o.dst)
                                 for o in wire.observer.observations],
                "cells_carried": wire.cells_carried,
                "wire_events_processed": wire.events_processed,
            }
        return wiretap, wire.net_report()

    # -- introspection ------------------------------------------------------------

    def state_of(self, client_id: str) -> CallState:
        return self.clients[client_id].agent.state

    def received_by(self, client_id: str) -> List[bytes]:
        return self.clients[client_id].agent.received_cells
