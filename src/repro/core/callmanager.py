"""Call lifecycle management at the mix and client (§3.6.2–3.6.3).

Ties together the pieces the paper describes separately:

* the caller's **signaling bit** in chaff manifests (outgoing calls),
* the mix's **dynamic channel allocation** (KVV RANKING) among the k
  channels the caller/callee attaches to,
* the downstream **GRANT** (to a signaling caller) and **INCOMING**
  announcement (to a ringing callee), sealed so only the addressee can
  read them,
* per-round downstream packet production: VOIP cells on busy channels,
  pending announcements, chaff everywhere else,
* call teardown, freeing channels for RANKING to reuse.

:class:`MixCallManager` is the mix-side controller;
:class:`ClientCallAgent` is the client-side state machine that trial-
decrypts every downstream packet (as all clients must) and tracks
idle → signaling → in-call transitions.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Deque, Dict, List, Optional, \
    Sequence, Set, Tuple

import numpy as np

from repro.core.allocation import ChannelAssignment, RankingMatcher
from repro.core.channel import decode_manifest, manifest_nonces, \
    read_manifests
from repro.core.client import HerdClient
from repro.core.mix import Mix
from repro.core.network_coding import PACKET_BLOCKS, upstream_nonces
from repro.core.signaling import (
    BODY_BLOCKS,
    ChannelGrant,
    IncomingCallAnnouncement,
    KIND_GRANT,
    KIND_INCOMING,
    KIND_VOIP,
    downstream_nonces,
    make_downstream_chaff,
    make_downstream_packets,
    open_downstream_packet,
)
from repro.crypto import chacha20
from repro.crypto.chacha20 import key_words
from repro.crypto.onion import CELL_SIZE

#: What :meth:`MixCallManager.process_columns` draws of a member's
#: manifest (block 1), of its peel row (from block 1) and of a call's
#: downstream packet (blocks 0 to ``BODY_BLOCKS``): counts, then starts.
_DRAW_COUNTS = np.array([1, PACKET_BLOCKS, 1 + BODY_BLOCKS])
_DRAW_STARTS = np.array([1, 1, 0])


@dataclass
class ActiveCall:
    """Mix-side record of one call on one channel."""

    call_id: int
    numeric_id: int
    channel_id: int
    outgoing: bool
    #: Downstream cells waiting to be sent to this call's client.
    downstream: Deque[bytes] = field(default_factory=deque)
    #: Channels this call vacated through mid-call failovers.
    failed_over_from: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class FailoverRecord:
    """One call leg's mid-call re-allocation after its channel's SP
    failed or was blacklisted.  ``new_channel`` is None when no
    surviving channel was free and the leg was dropped."""

    numeric_id: int
    call_id: int
    old_channel: int
    new_channel: Optional[int]

    @property
    def survived(self) -> bool:
        return self.new_channel is not None


class MixCallManager:
    """Allocates calls to channels, bridges the call legs of its zone
    and produces downstream rounds.  ``columns`` picks the form of
    :meth:`process_columns`' manifest read."""

    def __init__(self, mix: Mix, rng: Optional[random.Random] = None,
                 columns: bool = True):
        if not mix.channels:
            raise ValueError("mix has no channels configured")
        self.mix = mix
        self.rng = rng or random.Random(0)
        self.columns = columns
        #: Call ids are allocated per manager, not per process: a
        #: module-global counter would leak across simulations, making
        #: the GRANT payloads of a second identically-seeded run in
        #: the same interpreter differ from the first's.
        self._call_ids = itertools.count(1)
        self._assignment = ChannelAssignment(len(mix.channels))
        self.matcher = RankingMatcher(self._assignment, self.rng)
        #: numeric id → (channel → slot)
        self._slots: Dict[int, Dict[int, int]] = {}
        self._client_name: Dict[int, str] = {}
        self.calls: Dict[int, ActiveCall] = {}   # numeric id → call
        #: numeric id → numeric id of its call peer, both directions
        #: (:meth:`pair`).
        self.peers: Dict[int, int] = {}
        #: Optional hook for cross-zone routing: called with
        #: (numeric_id, payload) for voice recovered from a client whose
        #: call peer is not at this mix (see simulation.federation).
        self.external_router: Optional[Callable[[int, bytes], None]] = None
        self._pending_grant: Dict[int, ActiveCall] = {}
        self._pending_announce: Dict[int, ActiveCall] = {}
        #: Call legs denied a channel, each counted once: a client
        #: whose allocation failed is in :attr:`_blocked` until it is
        #: granted a channel or its pairing ends, so the ring's and a
        #: standing signal bit's retries are not counted again.
        self.calls_blocked = 0
        self._blocked: Set[int] = set()
        #: Channels of failed/blacklisted SPs: never allocated, never
        #: produced downstream (§3.6.4).
        self.disabled_channels: Set[int] = set()
        self.failovers: List[FailoverRecord] = []
        #: Optional observability hook (see :class:`repro.obs
        #: .instrument.CallManagerHook`): call lifecycle counters and
        #: the per-round chaff/payload cell census.
        self.obs = None

    # -- registration --------------------------------------------------------

    def register_client(self, client_id: str, numeric_id: int,
                        slots: Dict[int, int]) -> None:
        """Record a joined client's channel attachment (from
        :meth:`Mix.attach_client_to_channels`)."""
        self._assignment.add_client(numeric_id, tuple(slots))
        self._slots[numeric_id] = dict(slots)
        self._client_name[numeric_id] = client_id

    # -- call setup -------------------------------------------------------------

    def pair(self, caller: int, callee: int) -> None:
        """Bridge a call between two clients of this mix, the call's
        rendezvous: once the caller's GRANT has gone out the callee is
        rung, and each leg's recovered voice is queued for the other
        (:meth:`process_round`)."""
        self.peers[caller] = callee
        self.peers[callee] = caller

    def unpair(self, numeric_id: int) -> List[int]:
        """Dissolve the client's pairing; returns its call's legs, the
        client first, then its peer, if any."""
        peer = self.peers.pop(numeric_id, None)
        self._blocked.discard(numeric_id)
        if peer is None:
            return [numeric_id]
        del self.peers[peer]
        self._blocked.discard(peer)
        return [numeric_id, peer]

    def _allocate(self, numeric_id: int,
                  outgoing: bool) -> Optional[ActiveCall]:
        channel = self.matcher.try_allocate(numeric_id,
                                            exclude=self.disabled_channels)
        if channel is None:
            if numeric_id not in self._blocked:
                self._blocked.add(numeric_id)
                self.calls_blocked += 1
                if self.obs is not None:
                    self.obs.blocked(numeric_id)
            return None
        self._blocked.discard(numeric_id)
        slot = self._slots[numeric_id][channel]
        self.mix.channels[channel].start_call(slot)
        call = ActiveCall(call_id=next(self._call_ids),
                          numeric_id=numeric_id, channel_id=channel,
                          outgoing=outgoing)
        self.calls[numeric_id] = call
        if self.obs is not None:
            self.obs.granted(numeric_id, channel, outgoing)
        return call

    def handle_signal(self, numeric_id: int) -> Optional[ActiveCall]:
        """An outgoing-call request arrived via a manifest signaling
        bit.  Allocate a channel; the GRANT goes out with the next
        downstream round (§3.6.2: "The mix will respond on an available
        channel to which the caller attaches")."""
        if numeric_id in self.calls:
            return self.calls[numeric_id]  # duplicate signal: idempotent
        if self.obs is not None and numeric_id not in self._blocked:
            # A blocked caller's standing bit retries every round on
            # every channel; the episode was counted at its first try.
            self.obs.signaled(numeric_id)
        call = self._allocate(numeric_id, outgoing=True)
        if call is not None:
            self._pending_grant[numeric_id] = call
        return call

    def place_incoming(self, numeric_id: int) -> Optional[ActiveCall]:
        """An inbound call for a client arrived via the rendezvous.
        Allocate a channel and queue the INCOMING announcement."""
        if numeric_id in self.calls:
            self.calls_blocked += 1
            return None  # busy: one call per client
        call = self._allocate(numeric_id, outgoing=False)
        if call is not None:
            self._pending_announce[numeric_id] = call
        return call

    def end_call(self, numeric_id: int) -> None:
        call = self.calls.pop(numeric_id, None)
        if call is None:
            return
        self.matcher.release(numeric_id)
        self.mix.channels[call.channel_id].end_call()
        self._pending_grant.pop(numeric_id, None)
        self._pending_announce.pop(numeric_id, None)
        if self.obs is not None:
            self.obs.ended(numeric_id)

    def fail_channels(self, channel_ids: Collection[int]
                      ) -> List[FailoverRecord]:
        """Mid-call failover: the channels' SP died or was blacklisted
        by the :class:`~repro.core.blacklist.SPMonitor` (§3.6.4).

        The channels are disabled for all future allocation and
        downstream production.  Every active call on one of them is
        re-allocated to a surviving free channel among its client's k
        attachments; a re-GRANT is queued so the client learns its new
        channel with the next downstream round and the call resumes.
        Legs with no surviving free channel are dropped (the caller is
        expected to tear down the peer leg).
        """
        dead = set(channel_ids)
        self.disabled_channels.update(dead)
        records: List[FailoverRecord] = []
        for numeric_id, call in list(self.calls.items()):
            if call.channel_id not in dead:
                continue
            old_channel = call.channel_id
            self.matcher.release(numeric_id)
            self.mix.channels[old_channel].end_call()
            self._pending_grant.pop(numeric_id, None)
            self._pending_announce.pop(numeric_id, None)
            new_channel = self.matcher.try_allocate(
                numeric_id, exclude=self.disabled_channels)
            if new_channel is None:
                del self.calls[numeric_id]
                record = FailoverRecord(numeric_id, call.call_id,
                                        old_channel, None)
            else:
                slot = self._slots[numeric_id][new_channel]
                self.mix.channels[new_channel].start_call(slot)
                call.channel_id = new_channel
                call.failed_over_from.append(old_channel)
                self._pending_grant[numeric_id] = call
                record = FailoverRecord(numeric_id, call.call_id,
                                        old_channel, new_channel)
            records.append(record)
            self.failovers.append(record)
            if self.obs is not None:
                self.obs.failover(record)
        return records

    def enqueue_voice(self, numeric_id: int, cell: bytes) -> None:
        """Queue a downstream voice cell for a client's active call."""
        call = self.calls.get(numeric_id)
        if call is None:
            raise KeyError(f"client {numeric_id} has no active call")
        call.downstream.append(cell)

    # -- downstream round production -------------------------------------------

    def downstream_channels(self) -> List[int]:
        """Every channel a downstream round fills — the mix's channels
        that are not disabled — in the mix's order.  The one source of
        the round's trial decryptions, on the mix's side and the
        clients'."""
        return [channel_id for channel_id in self.mix.channels
                if channel_id not in self.disabled_channels]

    def downstream_round(self, round_index: int,
                         seals: Optional[Dict[tuple, bytes]] = None
                         ) -> Dict[int, bytes]:
        """One packet per channel for this round (Fig. 2a).

        Priority per busy channel: pending GRANT/INCOMING first, then a
        queued voice cell, then addressed chaff (a VOIP packet with an
        empty payload keeps the crypto path identical).  Idle channels
        carry random chaff.  A packet is sealed over the stream
        ``seals`` holds for its ``(channel, key)``, if any.
        """
        n_control = n_payload = n_chaff = 0
        #: channel → (key, channel, round, kind, payload), sealed
        #: together below.
        addressed: Dict[int, tuple] = {}
        for numeric_id, call in list(self._pending_grant.items()):
            key = self.mix.client_keys[self._client_name[numeric_id]]
            addressed[call.channel_id] = (
                key, call.channel_id, round_index, KIND_GRANT,
                ChannelGrant(call.channel_id, call.call_id).encode())
            del self._pending_grant[numeric_id]
            n_control += 1
        for numeric_id, call in list(self._pending_announce.items()):
            key = self.mix.client_keys[self._client_name[numeric_id]]
            addressed[call.channel_id] = (
                key, call.channel_id, round_index, KIND_INCOMING,
                IncomingCallAnnouncement(call.call_id).encode())
            del self._pending_announce[numeric_id]
            n_control += 1
        for call in self.calls.values():
            if call.channel_id in addressed:
                continue
            key = self.mix.client_keys[self._client_name[call.numeric_id]]
            cell = call.downstream.popleft() if call.downstream else b""
            addressed[call.channel_id] = (
                key, call.channel_id, round_index, KIND_VOIP, cell)
            # An empty VOIP cell is addressed chaff: wire-identical to
            # payload, which is exactly the paper's unobservability
            # argument — only the mix-side census can tell them apart.
            if cell:
                n_payload += 1
            else:
                n_chaff += 1
        seals = seals or {}
        out: Dict[int, bytes] = dict(zip(addressed, make_downstream_packets(
            list(addressed.values()),
            [seals.get((channel_id, key.key))
             for key, channel_id, *_ in addressed.values()])))
        enabled = self.downstream_channels()
        for channel_id in enabled:
            if channel_id not in out:
                out[channel_id] = make_downstream_chaff(self.rng)
                n_chaff += 1
        if self.obs is not None:
            busy = sum(1 for c in self.calls.values()
                       if c.channel_id not in self.disabled_channels)
            self.obs.downstream_round(round_index, n_payload, n_chaff,
                                      n_control, busy, len(enabled))
        return out

    # -- round ingestion ------------------------------------------------------------

    def _ingest(self, upstream: List[Tuple[int, bytes,
                                           List[Tuple[int, int, bool]]]],
                peel: Optional[tuple] = None
                ) -> List[Tuple[Optional[int], bytes]]:
        """Decode upstream rounds given as (channel_id, xor_packet,
        manifest_entries) — all of them with one chaff prediction —
        then, channel by channel in the given order, act on the
        signals and route any recovered voice cell (:meth:`_route`).

        Decoding reads each channel's active call before any signal
        of the batch is acted on.  A signal can only *start* a call,
        on a channel that was free, and the caller — not yet granted —
        still sends chaff there this round, so the channel yields no
        payload either way."""
        recovered = []
        for active, payload, signalers in self.mix.decode_channel_rounds(
                upstream, peel):
            for numeric_id in signalers:
                self.handle_signal(numeric_id)
            if active is not None and payload:
                self._route(active, payload)
            recovered.append((active, payload))
        return recovered

    def _route(self, numeric_id: int, cell: bytes) -> None:
        """Bridge a recovered voice cell to the peer's call leg (the
        intra-mix segment of the circuit), or hand it to
        :attr:`external_router` when the peer is not here.  Upstream
        payloads are zero-padded to the coded-packet capacity; the
        voice unit inside is a fixed-size circuit cell, so the mix
        forwards exactly CELL_SIZE bytes."""
        peer = self.peers.get(numeric_id)
        if peer is None:
            if self.external_router is not None:
                self.external_router(numeric_id, cell)
        elif peer in self.calls:
            self.enqueue_voice(peer, cell[:CELL_SIZE])

    def _ring(self) -> None:
        """Place the incoming leg of each pairing whose caller's GRANT
        has gone out and whose callee is not rung yet."""
        for numeric_id, peer in list(self.peers.items()):
            call = self.calls.get(numeric_id)
            if call is not None and call.outgoing and peer not in \
                    self.calls and numeric_id not in self._pending_grant:
                self.place_incoming(peer)

    def process_upstream(self, channel_id: int, xor_packet: bytes,
                         manifests: List[Tuple[int, int, bool]]
                         ) -> Tuple[Optional[int], bytes]:
        """Decode one upstream round and act on its signals and voice.
        Returns (active numeric id, payload) for any recovered voice
        cell."""
        return self._ingest([(channel_id, xor_packet, manifests)])[0]

    def process_round(self, round_index: int,
                      upstream: List[Tuple[int, bytes,
                                           List[Tuple[int, int, bool]]]],
                      peel: Optional[tuple] = None,
                      seals: Optional[Dict[tuple, bytes]] = None
                      ) -> Dict[int, bytes]:
        """The mix's round: ingest every channel's upstream round,
        route recovered voice to the paired legs, ring the callees
        whose caller's GRANT has gone out, and produce the whole
        downstream round.

        ``upstream`` is a list of (channel_id, xor_packet,
        manifest_entries) triples, acted on in the given order
        (callers pass sorted channel order).  A round is ingested all
        or nothing: every channel is decoded before any signal or
        voice cell is acted on, so the ``ValueError`` of one
        misbehaving channel (nonzero residue, sequence mismatch)
        leaves no channel of the round applied.

        Any row ``peel`` and ``seals`` (:meth:`process_columns`) did
        not draw ahead is a miss, drawn in one call where it is needed.
        """
        self._ingest(upstream, peel)
        self._ring()
        return self.downstream_round(round_index, seals)

    def manifest_entries(self, channel_id: int, manifests: Sequence[bytes],
                         numerics: Sequence[int]
                         ) -> List[Tuple[int, int, bool]]:
        """The mix's decode of one channel's manifests, one
        :func:`~repro.core.channel.decode_manifest` a slot, against the
        sequences its channel expects next, which then follow them:
        ``(numeric id, sequence, signal)`` per member."""
        channel = self.mix.channels[channel_id]
        decoded = [decode_manifest(
            raw, self.mix.client_keys[self._client_name[numeric]], slot,
            expected) for slot, (raw, numeric, expected) in enumerate(zip(
                manifests, numerics, channel.next_sequences))]
        channel.resync([manifest.sequence for manifest in decoded])
        return [(numeric, manifest.sequence, manifest.signal)
                for numeric, manifest in zip(numerics, decoded)]

    def process_columns(self, round_index: int,
                        rounds: Sequence[tuple]) -> Dict[int, bytes]:
        """:meth:`process_round` of ``(channel_id, xor_packet,
        manifests, roster)`` in channel order — ``roster`` the
        channel's ``numerics``, ``mix_keys`` and ``slots`` columns —
        drawing in one kernel call what the round's start fixes: each
        member's manifest block (by slot) and peel row (at the sequence
        its channel expects, §3.6.1), and blocks 0…5 of each call's
        downstream packet (by channel and round, §3.6.2).  Without
        :attr:`columns` each manifest is read by
        :meth:`manifest_entries` and nothing is drawn ahead."""
        if not self.columns:
            return self.process_round(round_index, [
                (channel_id, xor_packet, self.manifest_entries(
                    channel_id, manifests, roster.numerics))
                for channel_id, xor_packet, manifests, roster in rounds])
        rosters = [roster for _, _, _, roster in rounds]
        data = b"".join([b"".join(manifests) for _, _, manifests, _ in rounds])
        numerics = tuple(itertools.chain.from_iterable(
            roster.numerics for roster in rosters))
        if len(data) != 4 * len(numerics):
            raise ValueError("manifest must be 4 bytes")
        expected = np.array(list(itertools.chain.from_iterable(
            self.mix.channels[channel_id].next_sequences[
                :len(roster.numerics)]
            for channel_id, _, _, roster in rounds)), dtype=np.uint64)
        calls = [(call.channel_id, self.mix.client_keys[
            self._client_name[call.numeric_id]].key)
            for call in self.calls.values()]
        n, m = len(numerics), len(calls)
        stream = np.frombuffer(chacha20._keystream_blocks(
            np.concatenate([roster.mix_keys for roster in rosters] * 2
                           + [key_words([key for _, key in calls])]),
            np.concatenate((
                manifest_nonces(np.concatenate(
                    [roster.slots for roster in rosters]
                    + [np.empty(0, np.int64)])),
                upstream_nonces(expected),
                downstream_nonces([channel_id for channel_id, _ in calls],
                                  [round_index] * m))),
            np.repeat(_DRAW_COUNTS, (n, n, m)),
            np.repeat(_DRAW_STARTS, (n, n, m))), dtype=np.uint32)
        cut = 16 * n * (1 + PACKET_BLOCKS)
        _, sequences, signals = read_manifests(
            stream[:16 * n:16], np.frombuffer(data, dtype=np.uint32),
            expected)
        sequences, signals = sequences.tolist(), signals.tolist()
        upstream, end = [], 0
        for channel_id, xor_packet, _, roster in rounds:
            start, end = end, end + len(roster.numerics)
            self.mix.channels[channel_id].resync(sequences[start:end])
            upstream.append((channel_id, xor_packet, list(zip(
                roster.numerics, sequences[start:end], signals[start:end]))))
        return self.process_round(
            round_index, upstream,
            (numerics, expected,
             stream[16 * n:cut].view(np.uint64).reshape(n, 8 * PACKET_BLOCKS)),
            dict(zip(calls, stream[cut:].view(
                f"V{64 * (1 + BODY_BLOCKS)}").tolist())))


class CallState(Enum):
    IDLE = "idle"
    SIGNALING = "signaling"
    IN_CALL = "in_call"
    RINGING = "ringing"


@dataclass
class ClientCallAgent:
    """Client-side call state machine over SP channels."""

    client: HerdClient
    state: CallState = CallState.IDLE
    active_channel: Optional[int] = None
    call_id: Optional[int] = None
    received_cells: List[bytes] = field(default_factory=list)

    def start_outgoing(self) -> None:
        """Begin signaling an outgoing call (§3.6.2: the signal bit
        rides the chaff manifests — the caller does not know which, if
        any, channel is available)."""
        if self.state is not CallState.IDLE:
            raise RuntimeError(f"cannot start a call while {self.state}")
        self.client.request_outgoing_call()
        self.state = CallState.SIGNALING

    def hang_up(self) -> None:
        self.client.clear_signal()
        self.state = CallState.IDLE
        self.active_channel = None
        self.call_id = None

    def process_downstream(self, channel_id: int, round_index: int,
                           packet: bytes) -> Optional[str]:
        """Trial-decrypt one downstream packet; returns an event name
        ("granted", "ringing", "voice") or None for chaff."""
        return self.handle_opened(channel_id, open_downstream_packet(
            self.client.session_key, channel_id, round_index, packet))

    def handle_opened(self, channel_id: int,
                      opened: Optional[Tuple[int, bytes]]
                      ) -> Optional[str]:
        """Act on the outcome of a trial decryption
        (:func:`~repro.core.signaling.open_downstream_packets`)."""
        if opened is None:
            return None
        kind, payload = opened
        if kind == KIND_GRANT:
            grant = ChannelGrant.decode(payload)
            self.client.clear_signal()
            self.state = CallState.IN_CALL
            self.active_channel = grant.channel_id
            self.call_id = grant.call_id
            return "granted"
        if kind == KIND_INCOMING:
            announcement = IncomingCallAnnouncement.decode(payload)
            self.state = CallState.IN_CALL  # auto-accept, as in §4.3.2
            self.active_channel = channel_id
            self.call_id = announcement.call_id
            return "ringing"
        if kind == KIND_VOIP:
            if payload:
                self.received_cells.append(payload)
            return "voice"
        return None
