"""A live, round-based Herd zone: the full SP data plane in motion.

Runs one zone's complete data path at codec-frame granularity, with
every mechanism of §3.4 and §3.6 active each round:

* every client emits one encrypted packet + manifest per attached
  channel (payload only on its call's channel, chaff elsewhere),
* each SP XOR-combines its channels' packets and forwards them with
  the manifest lists,
* the mix decrypts manifests, decodes the XOR rounds, reacts to
  signaling bits (RANKING allocation + GRANT), routes recovered voice
  cells to their destination call, and produces the downstream round
  (GRANT / INCOMING / VOIP / chaff),
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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import execution as execution_registry
from repro.core.transport import CellTransport
from repro.core.callmanager import CallState, ClientCallAgent, \
    FailoverRecord, MixCallManager
from repro.core.channel import decode_manifest
from repro.core.join import join_zone
from repro.core.client import ChannelAttachment, HerdClient, \
    seal_upstream
from repro.crypto.chacha20 import key_words
from repro.crypto.keys import SessionKey
from repro.core.signaling import TrialKeys, open_downstream_packets
from repro.core.shedding import LoadShedder
from repro.simulation.roundsync import DEFAULT_ROUND_INTERVAL_S
from repro.simulation.testbed import HerdTestbed, build_testbed


class CallRefused(RuntimeError):
    """:meth:`LiveZone.start_call` was asked for a call that cannot
    start: a party is already in a call (or being rung), or the
    caller called itself.  Raised before any state changes."""


@dataclass
class LiveClient:
    """A client plus its call agent and voice queues."""

    client: HerdClient
    agent: ClientCallAgent
    outbox: Deque[bytes] = field(default_factory=deque)

    @property
    def numeric_id(self) -> int:
        return self.client.numeric_id


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
                 "up_links", "down_links", "_sp", "_built_from")

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
        self.zone_mode = plane.zone_mode
        self.transport = plane.transport
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
        self.client_prefix = client_prefix
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
        self.manager = MixCallManager(self.mix,
                                      random.Random(seed))
        self.clients: Dict[str, LiveClient] = {}
        #: The clients with a cell queued (:meth:`say`), in the order
        #: they first had one.
        self._speaking: Dict[str, LiveClient] = {}
        self._by_numeric: Dict[int, LiveClient] = {}
        #: numeric id → numeric id of the call peer (both directions).
        self.peers: Dict[int, int] = {}
        #: Optional hook for cross-zone routing: called with
        #: (numeric_id, payload) for voice recovered from clients whose
        #: call peer is not local (see simulation.federation).
        self.external_router = None
        self.round_index = 0
        self.rng = random.Random(seed + 1)
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
        live = LiveClient(client=client,
                          agent=ClientCallAgent(client))
        self.clients[client_id] = live
        self._by_numeric[client.numeric_id] = live
        self.bed.clients[client_id] = client
        return live

    # -- call control ----------------------------------------------------------

    def start_call(self, caller_id: str, callee_id: str) -> None:
        """The caller signals; once granted, the mix rings the callee
        and the two calls are bridged at the mix.  Raises
        :class:`CallRefused` when the caller calls itself or either
        party already has a call leg, so no call takes over another's
        voice."""
        caller = self.clients[caller_id]
        callee = self.clients[callee_id]
        if caller is callee:
            raise CallRefused(f"{caller_id} cannot call itself")
        for party in (caller, callee):
            if party.numeric_id in self.peers:
                raise CallRefused(
                    f"{party.client.client_id} is already in a call")
        caller.agent.start_outgoing()
        self.peers[caller.numeric_id] = callee.numeric_id
        self.peers[callee.numeric_id] = caller.numeric_id
        if self.obs is not None:
            self.obs.call_started(caller_id, callee_id)

    def hang_up(self, client_id: str) -> None:
        """End the client's call and its peer's.  Voice either leg
        queued for the ended call is dropped, never carried into the
        next one."""
        live = self.clients[client_id]
        peer_numeric = self.peers.pop(live.numeric_id, None)
        legs = [live]
        if peer_numeric is not None:
            legs.append(self._by_numeric[peer_numeric])
            self.peers.pop(peer_numeric, None)
        for leg in legs:
            self.manager.end_call(leg.numeric_id)
            leg.agent.hang_up()
            leg.outbox.clear()
            self._speaking.pop(leg.client.client_id, None)
            if self.obs is not None:
                self.obs.call_ended(leg.client.client_id)

    def say(self, client_id: str, cell: bytes) -> None:
        """Queue a voice cell for the client's active call."""
        live = self.clients[client_id]
        live.outbox.append(cell)
        self._speaking[client_id] = live

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
                live = self._by_numeric.get(record.numeric_id)
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

    def _upstream(self, rosters: Dict[int, ChannelRoster]) -> None:
        payloads = self._payloads(rosters)
        for channel_id, roster in rosters.items():
            if roster.entries:
                self._upstream_channel(channel_id, roster,
                                       payloads.get(channel_id, {}))

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

    def _payloads(self, rosters: Dict[int, ChannelRoster]
                  ) -> Dict[int, Dict[int, bytes]]:
        """Channel → {row: the cell it carries} for the members whose
        call is live on the channel and who have a cell queued; chaff
        goes out everywhere else.  Under an overload window
        (:meth:`set_overload`) admission is capped per channel per
        round in slot order; deferred cells stay queued (backpressure)
        and chaff rides the wire in their place, so emission stays
        constant-rate.  Both engines take their payloads from here."""
        waiting: Dict[int, List[Tuple[int, LiveClient]]] = {}
        for client_id, live in self._speaking.items():
            roster = rosters.get(live.agent.active_channel)
            if live.agent.state is CallState.IN_CALL and roster \
                    is not None and client_id in roster.rows:
                waiting.setdefault(live.agent.active_channel, []).append(
                    (roster.rows[client_id], live))
        payloads = {}
        shedder = self.shedder
        for channel_id in sorted(waiting):
            budget = None
            if shedder is not None and shedder.applies_to(
                    self._sp_of_channel[channel_id].sp_id):
                budget = shedder.channel_budget(
                    len(rosters[channel_id].entries))
            admitted = 0
            sent = payloads[channel_id] = {}
            for row, live in sorted(waiting[channel_id],
                                    key=lambda item: item[0]):
                if budget is not None and admitted >= budget:
                    shedder.defer()
                    continue
                sent[row] = live.outbox.popleft()
                if not live.outbox:
                    del self._speaking[live.client.client_id]
                admitted += 1
                if budget is not None:
                    shedder.admit()
        return payloads

    def _manifest_entries(self, roster: ChannelRoster, up):
        """The mix's decode of one combined round's manifests, one
        :func:`~repro.core.channel.decode_manifest` a slot, against the
        sequences its channel expects next, which then follow them:
        ``(numeric id, sequence, signal)`` per member."""
        channel = self.mix.channels[up.channel_id]
        decoded = [decode_manifest(raw, entry.key, slot, expected)
                   for slot, (raw, entry, expected) in enumerate(zip(
                       up.manifests, roster.entries,
                       channel.next_sequences))]
        channel.resync([manifest.sequence for manifest in decoded])
        return [(numeric, manifest.sequence, manifest.signal)
                for numeric, manifest in zip(roster.numerics, decoded)]

    def _emit_upstream(self, sp, roster: ChannelRoster, packets,
                       up) -> None:
        """Offer one channel's upstream cells to the wire plane:
        each member's packet on its client↔SP link, then the combined
        XOR round on the SP↔mix link."""
        if self.wire is None:
            return
        self.wire.emit_each(roster.up_links, packets, kind="up")
        self.wire.emit(sp.sp_id, self.mix.mix_id, up.xor_packet,
                       kind="xor")

    def _upstream_channel(self, channel_id: int, roster: ChannelRoster,
                          payloads: Dict[int, bytes]) -> None:
        """One channel's round, one member and one cipher call at a
        time: the per-channel engine, and the oracle of the column
        round (:meth:`_step_batch`)."""
        sp = self._sp_of_channel[channel_id]
        packets, manifests = zip(*[
            HerdClient.upstream_packet(client, attachment,
                                       payloads.get(row))
            for row, (client, attachment) in enumerate(
                zip(roster.clients, roster.attachments))])
        up = sp.combine_upstream(channel_id, self.round_index,
                                 packets, manifests)
        self._emit_upstream(sp, roster, packets, up)
        active, payload = self.manager.process_upstream(
            channel_id, up.xor_packet, self._manifest_entries(roster, up))
        if active is not None and payload:
            self._route_voice(active, payload)

    def _route_voice(self, from_numeric: int, cell: bytes) -> None:
        """Bridge a recovered voice cell to the peer's call (the
        intra-mix segment of the circuit).  Upstream payloads are
        zero-padded to the coded-packet capacity; the voice unit inside
        is a fixed-size circuit cell, so the mix forwards exactly
        CELL_SIZE bytes."""
        from repro.crypto.onion import CELL_SIZE
        peer_numeric = self.peers.get(from_numeric)
        if peer_numeric is None:
            if self.external_router is not None:
                self.external_router(from_numeric, cell)
            return
        if peer_numeric in self.manager.calls:
            self.manager.enqueue_voice(peer_numeric, cell[:CELL_SIZE])

    def _ring_pending_callees(self) -> None:
        """Once a caller's channel is granted, place the incoming leg
        at the callee (the rendezvous would normally carry this)."""
        for numeric, peer in list(self.peers.items()):
            caller = self._by_numeric[numeric]
            callee = self._by_numeric[peer]
            if caller.agent.state is CallState.IN_CALL and \
                    callee.agent.state is CallState.IDLE and \
                    peer not in self.manager.calls:
                self.manager.place_incoming(peer)

    def _deliver_downstream(self, rosters: Dict[int, ChannelRoster],
                            round_packets: Dict[int, bytes],
                            trial_keys: Optional[TrialKeys] = None
                            ) -> None:
        """Broadcast one downstream round to every channel member
        (shared by both engines, so the wire image and client-side
        processing are identical by construction).  The round engine
        does every member's trial in one call on the client key
        columns, over the key blocks drawn when the round started
        (``trial_keys``), and acts on the hits; the per-channel engine
        leaves each trial to its agent."""
        #: (channel_id, roster, packet, (client_id, packet) pairs) as
        #: broadcast, in order.
        deliveries = []
        wire = self.wire
        for channel_id, packet in round_packets.items():
            sp = self._sp_of_channel[channel_id]
            if wire is not None:
                wire.emit(self.mix.mix_id, sp.sp_id, packet, kind="down")
            pairs = sp.broadcast_downstream(channel_id, packet)
            roster = rosters[channel_id]
            if wire is not None:
                wire.emit_each(roster.down_links, [pkt for _, pkt in pairs],
                               kind="bcast")
            deliveries.append((channel_id, roster, packet, pairs))
        if trial_keys is None:
            for channel_id, roster, _, pairs in deliveries:
                for (client_id, pkt), entry in zip(pairs, roster.entries):
                    self._client_event(client_id,
                                       entry.agent.process_downstream(
                                           channel_id, self.round_index,
                                           pkt))
            return
        if not deliveries:
            return
        starts = [0, *accumulate(len(pairs)
                                 for _, _, _, pairs in deliveries)]
        hits = open_downstream_packets(
            self.round_index,
            [(channel_id, packet, len(pairs))
             for channel_id, _, packet, pairs in deliveries],
            np.concatenate([roster.client_keys
                            for _, roster, _, _ in deliveries]),
            np.concatenate([trial_keys.poly_keys(channel_id,
                                                 roster.client_keys)
                            for channel_id, roster, _, _ in deliveries]),
            trial_keys.bodies({channel_id: start for (channel_id, _, _, _),
                               start in zip(deliveries, starts)}))
        for row in sorted(hits):
            i = bisect_right(starts, row) - 1
            channel_id, roster, _, pairs = deliveries[i]
            member = row - starts[i]
            self._client_event(pairs[member][0],
                               roster.entries[member].agent.handle_opened(
                                   channel_id, hits[row]))

    def _client_event(self, client_id: str, evt: Optional[str]) -> None:
        if self.obs is not None and evt is not None:
            self.obs.client_event(client_id, evt)

    def _gather_round(self, rosters: Dict[int, ChannelRoster]
                      ) -> Tuple[Dict[int, tuple], TrialKeys]:
        """Every channel's client emissions, rows in sorted-channel /
        slot order, sealed from the roster columns in one call with the
        key block of every trial the round's downstream will take (a
        member of each channel :meth:`MixCallManager
        .downstream_channels` lists) and the body of each call leg's.
        Each attachment's sequence is read once and written back after
        the seal.  Returns channel → (packets, manifests), and the
        drawn trial keys."""
        payloads = self._payloads(rosters)
        sending = [(channel_id, roster)
                   for channel_id, roster in rosters.items()
                   if roster.entries]
        ends = list(accumulate(len(roster.entries) for _, roster in sending))
        attachments = [attachment for _, roster in sending
                       for attachment in roster.attachments]
        sequences = [attachment.sequence for attachment in attachments]
        # The bodies: each call leg of the zone, in its call, on the
        # channel its call holds — the members the mix will address.
        legs = []
        for live in map(self._by_numeric.get, self.peers):
            roster = rosters.get(live.agent.active_channel)
            row = roster and roster.rows.get(live.client.client_id)
            if live.agent.state is CallState.IN_CALL and row is not None:
                legs.append((live.agent.active_channel, row))
        trial_keys = TrialKeys(self.round_index, [
            (channel_id, rosters[channel_id].client_keys)
            for channel_id in self.manager.downstream_channels()], legs)
        packets, manifests, trial_keys.blocks = seal_upstream(
            np.concatenate([roster.client_keys for _, roster in sending]
                           or [np.empty((0, 8), np.uint32)]),
            sequences,
            np.concatenate([roster.slots for _, roster in sending]
                           or [np.empty(0, np.int64)]),
            [client.signal_pending for _, roster in sending
             for client in roster.clients],
            {end - len(roster.entries) + row: payload
             for (channel_id, roster), end in zip(sending, ends)
             for row, payload in payloads.get(channel_id, {}).items()},
            trial_keys.request)
        for attachment, sequence in zip(attachments, sequences):
            attachment.sequence = sequence + 1
        gathered = {}
        for (channel_id, roster), end in zip(sending, ends):
            start = end - len(roster.entries)
            gathered[channel_id] = (packets[start:end],
                                    manifests[start:end])
        return gathered, trial_keys

    def _step_batch(self, rosters: Dict[int, ChannelRoster]) -> None:
        """The round-synchronous engine: the same round as the
        per-channel path, through the core batch entry points.

        Equivalence to the event path (DESIGN.md §9) holds because the
        hot-path state is factored exactly along the batch seams:
        client emission is gathered in the same sorted-channel /
        slot order, SP combining is per-channel pure (grouping the
        calls per SP cannot change any output), manifests decode
        against the mix's per-slot sequence counters, and the call
        manager ingests channels in sorted order — the same
        interleaving of rng draws, GRANT queueing, and voice routing
        as per-channel calls.  The cipher work is pure, so doing a
        whole round's in one call — every client's packets, manifests
        and downstream trial keys, the mix's manifest decryption —
        yields the per-item bytes (DESIGN.md "Crypto batching seam").
        """
        gathered, trial_keys = self._gather_round(rosters)
        per_sp: Dict[object, Dict[int, tuple]] = {}
        for channel_id, (packets, manifests) in gathered.items():
            per_sp.setdefault(self._sp_of_channel[channel_id], {})[
                channel_id] = (packets, manifests)
        rounds_by_channel = {}
        for sp, batches in per_sp.items():
            for up in sp.process_round(self.round_index, batches):
                rounds_by_channel[up.channel_id] = up
        channels = sorted(rounds_by_channel)
        for channel_id in channels:
            self._emit_upstream(self._sp_of_channel[channel_id],
                                rosters[channel_id],
                                gathered[channel_id][0],
                                rounds_by_channel[channel_id])
        round_packets = self.manager.process_columns(
            self.round_index,
            [(channel_id, rounds_by_channel[channel_id].xor_packet,
              rounds_by_channel[channel_id].manifests, rosters[channel_id])
             for channel_id in channels],
            route=self._route_voice,
            pre_downstream=self._ring_pending_callees)
        self._deliver_downstream(rosters, round_packets, trial_keys)

    def step(self) -> None:
        """One codec-frame round: upstream, control, downstream."""
        rosters = self._rosters_of_round()
        if self.zone_mode == "batch":
            self._step_batch(rosters)
        else:
            self._upstream(rosters)
            self._ring_pending_callees()
            self._deliver_downstream(
                rosters, self.manager.downstream_round(self.round_index))
        if self.wire is not None:
            self.wire.flush_round(self.round_index)
        if self.obs is not None:
            self.obs.round_finished(self.round_index)
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

    def tap_wire(self, tapped: bool) -> Optional[CellTransport]:
        """Attach the wire plane a run needs: always on the real-network
        plane (the datagrams *are* the transport), and on the simulator
        planes only when an adversary taps it."""
        if tapped or self.transport == "udp":
            return self.attach_wire()
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
