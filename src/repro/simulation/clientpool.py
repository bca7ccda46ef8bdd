"""A live zone's simulated clients: one role of its round (§3.6)."""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, \
    Sequence, Tuple

import numpy as np

from repro.core.callmanager import CallState, ClientCallAgent
from repro.core.client import HerdClient, seal_upstream
from repro.core.shedding import LoadShedder
from repro.core.signaling import TrialKeys, open_downstream_packets

if TYPE_CHECKING:
    from repro.simulation.live import ChannelRoster


@dataclass
class LiveClient:
    """A client plus its call agent and voice queues."""

    client: HerdClient
    agent: ClientCallAgent
    outbox: Deque[bytes] = field(default_factory=deque)

    @property
    def numeric_id(self) -> int:
        return self.client.numeric_id


class ClientPool:
    """Every client of a :class:`~repro.simulation.live.LiveZone` with
    its call agent and voice queue, and the two client phases of a
    round: :meth:`up` seals, :meth:`down` trial-decrypts.  A phase
    reads only what a client could — the rosters it is handed, the
    channels the downstream fills, the broadcast packets — and learns
    a call leg only from the GRANT or INCOMING its agent decrypts.

    ``columns`` picks the form of both phases: the whole round in one
    call over the roster columns, or the per-item functions a member
    at a time — the oracle of the columns."""

    def __init__(self, columns: bool):
        self.columns = columns
        self.clients: Dict[str, LiveClient] = {}
        #: numeric id → client.
        self.by_numeric: Dict[int, LiveClient] = {}
        #: The clients with a cell queued (:meth:`say`), in the order
        #: they first had one.
        self._speaking: Dict[str, LiveClient] = {}
        #: The trial keys the up phase drew for this round's down phase.
        self._trial_keys: Optional[TrialKeys] = None

    def add(self, client: HerdClient) -> LiveClient:
        """Take a joined client into the pool."""
        live = LiveClient(client=client, agent=ClientCallAgent(client))
        self.clients[client.client_id] = live
        self.by_numeric[client.numeric_id] = live
        return live

    def say(self, client_id: str, cell: bytes) -> None:
        """Queue a voice cell for the client's active call."""
        live = self.clients[client_id]
        live.outbox.append(cell)
        self._speaking[client_id] = live

    def hang_up(self, live: LiveClient) -> None:
        """End the client's side of its call; voice it queued for the
        call is dropped, never carried into the next one."""
        live.agent.hang_up()
        live.outbox.clear()
        self._speaking.pop(live.client.client_id, None)

    def _payloads(self, rosters: Dict[int, "ChannelRoster"],
                  shedder: Optional[LoadShedder]
                  ) -> Dict[int, Dict[int, bytes]]:
        """Channel → {row: the cell it carries} for the members whose
        call is live on the channel and who have a cell queued; chaff
        goes out everywhere else.  Under an overload window
        (``shedder``) admission is capped per channel per round in slot
        order; deferred cells stay queued (backpressure) and chaff
        rides the wire in their place, so emission stays
        constant-rate."""
        waiting: Dict[int, List[Tuple[int, LiveClient]]] = {}
        for client_id, live in self._speaking.items():
            roster = rosters.get(live.agent.active_channel)
            if live.agent.state is CallState.IN_CALL and roster \
                    is not None and client_id in roster.rows:
                waiting.setdefault(live.agent.active_channel, []).append(
                    (roster.rows[client_id], live))
        payloads = {}
        for channel_id in sorted(waiting):
            budget = None
            if shedder is not None and shedder.applies_to(
                    rosters[channel_id].sp_id):
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

    def up(self, round_index: int, rosters: Dict[int, "ChannelRoster"],
           trial_channels: Sequence[int],
           shedder: Optional[LoadShedder] = None
           ) -> Dict[int, Tuple[Sequence[bytes], Sequence[bytes]]]:
        """Clients up: every attachment's packet and manifest, channel
        → (packets, manifests) in slot order, for the channels with
        members; ``rosters`` in channel order.

        In column form the round is sealed in one call, beside the key
        block of every trial the round's downstream will take (a member
        of each of ``trial_channels``) and the body of each call leg's
        — the agents in a call, on their active channel.  Each
        attachment's sequence is read once and written back after the
        seal."""
        payloads = self._payloads(rosters, shedder)
        sending = [(channel_id, roster)
                   for channel_id, roster in rosters.items()
                   if roster.entries]
        if not self.columns:
            return {channel_id: tuple(zip(*[
                HerdClient.upstream_packet(
                    client, attachment,
                    payloads.get(channel_id, {}).get(row))
                for row, (client, attachment) in enumerate(
                    zip(roster.clients, roster.attachments))]))
                for channel_id, roster in sending}
        ends = list(accumulate(len(roster.entries) for _, roster in sending))
        attachments = [attachment for _, roster in sending
                       for attachment in roster.attachments]
        sequences = [attachment.sequence for attachment in attachments]
        legs = []
        for client_id, live in self.clients.items():
            if live.agent.state is CallState.IN_CALL:
                roster = rosters.get(live.agent.active_channel)
                row = roster and roster.rows.get(client_id)
                if row is not None:
                    legs.append((live.agent.active_channel, row))
        trial_keys = self._trial_keys = TrialKeys(round_index, [
            (channel_id, rosters[channel_id].client_keys)
            for channel_id in trial_channels], legs)
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
        return {channel_id: (packets[end - len(roster.entries):end],
                             manifests[end - len(roster.entries):end])
                for (channel_id, roster), end in zip(sending, ends)}

    def down(self, round_index: int, rosters: Dict[int, "ChannelRoster"],
             broadcasts: Sequence[Tuple[int, bytes,
                                        List[Tuple[str, bytes]]]]
             ) -> List[Tuple[str, str]]:
        """Clients down: each member of each channel trial-decrypts the
        packet its SP broadcast, ``broadcasts`` the SPs' ``(channel,
        packet, (client id, packet) pairs)``.  Returns (client id,
        event) for every agent the round addressed, in broadcast
        order.  In column form every trial is one call over the key
        blocks the up phase drew."""
        if not broadcasts:
            return []
        if not self.columns:
            events = [(client_id, entry.agent.process_downstream(
                channel_id, round_index, packet))
                for channel_id, _, pairs in broadcasts
                for (client_id, packet), entry in zip(
                    pairs, rosters[channel_id].entries)]
        else:
            starts = [0, *accumulate(len(pairs)
                                     for _, _, pairs in broadcasts)]
            hits = open_downstream_packets(
                round_index,
                [(channel_id, packet, len(pairs))
                 for channel_id, packet, pairs in broadcasts],
                np.concatenate([rosters[channel_id].client_keys
                                for channel_id, _, _ in broadcasts]),
                np.concatenate([self._trial_keys.poly_keys(
                    channel_id, rosters[channel_id].client_keys)
                    for channel_id, _, _ in broadcasts]),
                self._trial_keys.bodies({
                    channel_id: start for (channel_id, _, _), start
                    in zip(broadcasts, starts)}))
            events = []
            for row in sorted(hits):
                i = bisect_right(starts, row) - 1
                channel_id, _, pairs = broadcasts[i]
                member = row - starts[i]
                events.append((pairs[member][0], rosters[channel_id]
                               .entries[member].agent.handle_opened(
                                   channel_id, hits[row])))
        return [event for event in events if event[1] is not None]
