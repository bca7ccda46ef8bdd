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
from collections import deque
from dataclasses import dataclass, field
from itertools import starmap
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro import execution as execution_registry
from repro.core.transport import CellTransport
from repro.core.callmanager import CallState, ClientCallAgent, \
    FailoverRecord, MixCallManager
from repro.core.channel import decode_manifest, decode_manifest_words
from repro.core.join import join_zone
from repro.core.client import ChannelAttachment, HerdClient, \
    seal_upstream
from repro.crypto.keys import SessionKey
from repro.core.signaling import TrialKeys, open_downstream_packets
from repro.core.shedding import LoadShedder
from repro.simulation.roundsync import DEFAULT_ROUND_INTERVAL_S
from repro.simulation.testbed import HerdTestbed, build_testbed


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
    about rosters)."""

    __slots__ = ("members", "entries", "numerics", "keys", "_sp",
                 "_clients", "_built_from")

    def __init__(self, sp, channel_id: int,
                 entries: Tuple[RosterEntry, ...]):
        #: Client ids, as the SP lists them.
        self.members = tuple(sp.channel_clients[channel_id])
        self.entries = entries
        self.numerics = [entry.numeric_id for entry in entries]
        #: The members' session keys: what their trials are keyed by.
        self.keys = tuple(entry.key for entry in entries)
        self._sp = sp
        self._clients = [entry.live.client for entry in entries]
        self._built_from = self._membership_state()

    def _membership_state(self) -> Tuple[int, List[int]]:
        return self._sp.membership_epoch, [
            client.attachment_epoch for client in self._clients]

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
        and the two calls are bridged at the mix."""
        caller = self.clients[caller_id]
        callee = self.clients[callee_id]
        caller.agent.start_outgoing()
        self.peers[caller.numeric_id] = callee.numeric_id
        self.peers[callee.numeric_id] = caller.numeric_id
        if self.obs is not None:
            self.obs.call_started(caller_id, callee_id)

    def hang_up(self, client_id: str) -> None:
        live = self.clients[client_id]
        peer_numeric = self.peers.pop(live.numeric_id, None)
        self.manager.end_call(live.numeric_id)
        live.agent.hang_up()
        if self.obs is not None:
            self.obs.call_ended(client_id)
        if peer_numeric is not None:
            peer = self._by_numeric[peer_numeric]
            self.peers.pop(peer_numeric, None)
            self.manager.end_call(peer_numeric)
            peer.agent.hang_up()
            if self.obs is not None:
                self.obs.call_ended(peer.client.client_id)

    def say(self, client_id: str, cell: bytes) -> None:
        """Queue a voice cell for the client's active call."""
        self.clients[client_id].outbox.append(cell)

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

    def _upstream(self) -> None:
        for channel_id, sp in sorted(self._sp_of_channel.items()):
            self._upstream_channel(channel_id, sp)

    def _roster(self, channel_id: int) -> ChannelRoster:
        """The channel's roster: built on first use, and again when —
        and only when — the membership it was built from has changed
        (:meth:`ChannelRoster.is_current`).  Every per-member look-up
        of a round, on every engine, goes through here."""
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

    def _gather_channel(self, channel_id: int, sp, emit):
        """Collect one channel's round of client emissions, in slot
        order (payload only where a call is live on this channel).

        ``emit`` is what each member's client is asked for:
        :meth:`HerdClient.upstream_packet` — the sealed (packet,
        manifest) pair, one cipher call per client, as the per-channel
        engine runs — or :meth:`HerdClient.plan_upstream`, whose plans
        :meth:`_step_batch` seals for the whole round at once.

        Under an overload window (:meth:`set_overload`) payload
        admission is capped per channel per round in strict slot
        order; deferred cells stay queued (client backpressure) and a
        chaff cell rides the wire in their place, so emission stays
        constant-rate.  Both engines call this in the same sorted
        channel / slot order, so shedding is engine-equivalent."""
        roster = self._roster(channel_id)
        emissions = []
        shedder = self.shedder
        budget = None
        if shedder is not None and shedder.applies_to(sp.sp_id):
            budget = shedder.channel_budget(len(roster.entries))
        admitted = 0
        in_call = CallState.IN_CALL
        for live, attachment, agent, _, _ in roster.entries:
            payload = None
            if agent.state is in_call and \
                    agent.active_channel == channel_id and \
                    live.outbox:
                if budget is not None and admitted >= budget:
                    shedder.defer()
                else:
                    payload = live.outbox.popleft()
                    admitted += 1
                    if budget is not None:
                        shedder.admit()
            emissions.append(emit(live.client, attachment, payload))
        return roster.members, emissions

    def _manifest_trials(self, up):
        """What the mix decrypts one combined round's manifests with:
        the members' numeric ids and, per slot, a ``(data, key, slot,
        expected_sequence)`` trial for :func:`~repro.core.channel
        .decode_manifest_words`."""
        roster = self._roster(up.channel_id)
        return roster.numerics, [
            (raw, entry.key, slot, entry.attachment.sequence - 1)
            for slot, (raw, entry) in enumerate(zip(up.manifests,
                                                    roster.entries))]

    def _emit_upstream(self, sp, members, packets, up) -> None:
        """Offer one channel's upstream cells to the wire plane:
        each member's packet on its client↔SP link, then the combined
        XOR round on the SP↔mix link."""
        if self.wire is None:
            return
        for client_id, pkt in zip(members, packets):
            self.wire.emit(client_id, sp.sp_id, pkt, kind="up")
        self.wire.emit(sp.sp_id, self.mix.mix_id, up.xor_packet,
                       kind="xor")

    def _upstream_channel(self, channel_id: int, sp) -> None:
        members, sealed = self._gather_channel(
            channel_id, sp, HerdClient.upstream_packet)
        if not sealed:
            return
        packets, manifests = zip(*sealed)
        up = sp.combine_upstream(channel_id, self.round_index,
                                 packets, manifests)
        self._emit_upstream(sp, members, packets, up)
        numerics, trials = self._manifest_trials(up)
        active, payload = self.manager.process_upstream(
            channel_id, up.xor_packet,
            [(numeric, m.sequence, m.signal) for numeric, m
             in zip(numerics, starmap(decode_manifest, trials))])
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

    def _deliver_downstream(self, round_packets: Dict[int, bytes],
                            trial_keys: Optional[TrialKeys] = None
                            ) -> None:
        """Broadcast one downstream round to every channel member
        (shared by both engines, so the wire image and client-side
        processing are identical by construction).  The round engine
        does every member's trial decryption of the round in one call,
        over the key blocks its clients drew when the round started
        (``trial_keys``), and acts on the hits; the per-channel engine
        leaves each trial to its agent."""
        #: (channel_id, client_id, roster entry, packet) as
        #: broadcast, in order.
        deliveries = []
        poly_keys: List[bytes] = []
        for channel_id, packet in round_packets.items():
            sp = self._sp_of_channel[channel_id]
            if self.wire is not None:
                self.wire.emit(self.mix.mix_id, sp.sp_id, packet,
                               kind="down")
            roster = self._roster(channel_id)
            for (client_id, pkt), entry in zip(
                    sp.broadcast_downstream(channel_id, packet),
                    roster.entries):
                if self.wire is not None:
                    self.wire.emit(sp.sp_id, client_id, pkt,
                                   kind="bcast")
                deliveries.append((channel_id, client_id, entry, pkt))
            if trial_keys is not None:
                poly_keys += trial_keys.poly_keys(channel_id, roster.keys)
        if trial_keys is None:
            for channel_id, client_id, entry, pkt in deliveries:
                evt = entry.agent.process_downstream(
                    channel_id, self.round_index, pkt)
                if self.obs is not None and evt is not None:
                    self.obs.client_event(client_id, evt)
            return
        opened = open_downstream_packets(
            [(entry.key, channel_id, self.round_index, pkt)
             for channel_id, _, entry, pkt in deliveries], poly_keys)
        for (channel_id, client_id, entry, _), hit in zip(deliveries,
                                                          opened):
            if hit is None:
                continue
            evt = entry.agent.handle_opened(channel_id, hit)
            if self.obs is not None and evt is not None:
                self.obs.client_event(client_id, evt)

    def _downstream(self) -> None:
        self._deliver_downstream(
            self.manager.downstream_round(self.round_index))

    def _gather_round(self) -> Tuple[Dict[int, tuple], TrialKeys]:
        """Every channel's round of client emissions: planned client
        by client in sorted-channel / slot order, sealed — all the
        zone's packets and manifests, and the key block of every trial
        decryption the round's downstream packets will take (one per
        member of every channel :meth:`MixCallManager
        .downstream_channels` lists) — in one call.  Returns channel →
        (sp, members, packets, manifests), and the drawn trial keys."""
        planned = {}
        for channel_id, sp in sorted(self._sp_of_channel.items()):
            members, plans = self._gather_channel(
                channel_id, sp, HerdClient.plan_upstream)
            if plans:
                planned[channel_id] = (sp, members, plans)
        trial_keys = TrialKeys(self.round_index, [
            (channel_id, self._roster(channel_id).keys)
            for channel_id in self.manager.downstream_channels()])
        sealed, trial_keys.blocks = seal_upstream(
            [plan for _, _, plans in planned.values() for plan in plans],
            trial_keys.requests)
        gathered = {}
        start = 0
        for channel_id, (sp, members, plans) in planned.items():
            pairs = sealed[start:start + len(plans)]
            start += len(plans)
            gathered[channel_id] = (sp, members,
                                    [packet for packet, _ in pairs],
                                    [manifest for _, manifest in pairs])
        return gathered, trial_keys

    def _step_batch(self) -> None:
        """The round-synchronous engine: the same round as the
        per-channel path, through the core batch entry points.

        Equivalence to the event path (DESIGN.md §9) holds because the
        hot-path state is factored exactly along the batch seams:
        client emission is gathered in the same sorted-channel /
        slot order, SP combining is per-channel pure (grouping the
        calls per SP cannot change any output), manifests decode from
        per-attachment sequence counters, and the call manager ingests
        channels in sorted order — the same interleaving of rng draws,
        GRANT queueing, and voice routing as per-channel calls.  The
        cipher work is pure, so doing a whole round's in one call —
        every client's packets, manifests and downstream trial keys,
        the mix's manifest decryption — yields the per-item bytes
        (DESIGN.md "Crypto batching seam").
        """
        gathered, trial_keys = self._gather_round()
        per_sp: Dict[object, Dict[int, tuple]] = {}
        for channel_id, (sp, _, packets,
                         manifests) in gathered.items():
            per_sp.setdefault(sp, {})[channel_id] = (packets,
                                                     manifests)
        rounds_by_channel = {}
        for sp, batches in per_sp.items():
            for up in sp.process_round(self.round_index, batches):
                rounds_by_channel[up.channel_id] = up
        numerics, trials = [], []
        for channel_id in sorted(rounds_by_channel):
            up = rounds_by_channel[channel_id]
            sp, members, packets, _ = gathered[channel_id]
            self._emit_upstream(sp, members, packets, up)
            up_numerics, up_trials = self._manifest_trials(up)
            numerics.append(up_numerics)
            trials.extend(up_trials)
        decoded = decode_manifest_words(trials)
        upstream = []
        start = 0
        for channel_id, up_numerics in zip(sorted(rounds_by_channel),
                                           numerics):
            end = start + len(up_numerics)
            upstream.append(
                (channel_id, rounds_by_channel[channel_id].xor_packet,
                 [(numeric, sequence, signal)
                  for numeric, (_, sequence, signal)
                  in zip(up_numerics, decoded[start:end])]))
            start = end
        round_packets = self.manager.process_round(
            self.round_index, upstream, route=self._route_voice,
            pre_downstream=self._ring_pending_callees)
        self._deliver_downstream(round_packets, trial_keys)

    def step(self) -> None:
        """One codec-frame round: upstream, control, downstream."""
        if self.zone_mode == "batch":
            self._step_batch()
        else:
            self._upstream()
            self._ring_pending_callees()
            self._downstream()
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
        execution engine (per-cell events, per-round batches, or
        per-round run tables — the tap records byte-identical
        streams under all of them), or — on the ``asyncio`` plane —
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

    # -- introspection ------------------------------------------------------------

    def state_of(self, client_id: str) -> CallState:
        return self.clients[client_id].agent.state

    def received_by(self, client_id: str) -> List[bytes]:
        return self.clients[client_id].agent.received_cells
