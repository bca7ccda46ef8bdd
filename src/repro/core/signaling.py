"""In-band call signaling through untrusted SPs (§3.6.2).

"In the case of an incoming call, the mix simply chooses an available
channel to which the callee attaches (if any), and encrypts downstream
packets in the channel with the key s shared with the callee.  The
callee, which like every client, tries to decrypt every incoming packet
on each channel, is able to decrypt the information signaling an
incoming call [...] In the case of an outgoing call, the caller sets
the signaling bit in the manifest of the chaff packets it sends."

Downstream packets are fixed-size AEAD envelopes: only the addressed
client authenticates them; everyone else discards them as chaff
(Fig. 2a).  Idle channels carry uniformly random chaff of the same
size.  Four payload kinds exist::

    0x01 INCOMING   — ring: an inbound call is waiting on this channel
    0x02 GRANT      — response to a signaling bit: channel granted for
                      the client's outgoing call
    0x03 VOIP       — a voice cell for the channel's active call
    0x04 CONTROL    — other mix→client control traffic
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto import chacha20
from repro.crypto.chacha20 import (
    aead_open_drawn,
    aead_seal_many,
    key_words,
    nonce_columns,
)
from repro.crypto.keys import SessionKey
from repro.core.network_coding import CODED_PACKET_SIZE

KIND_INCOMING = 0x01
KIND_GRANT = 0x02
KIND_VOIP = 0x03
KIND_CONTROL = 0x04
_KINDS = (KIND_INCOMING, KIND_GRANT, KIND_VOIP, KIND_CONTROL)

#: Downstream packets match the upstream coded-packet size, so the two
#: directions of a client link are symmetric on the wire.
DOWNSTREAM_PACKET_SIZE = CODED_PACKET_SIZE
_AEAD_OVERHEAD = 16
_HEADER = struct.Struct("<BH")  # kind, payload length
_CAPACITY = DOWNSTREAM_PACKET_SIZE - _AEAD_OVERHEAD - _HEADER.size
#: The keystream blocks a downstream body takes, from block 1.
BODY_BLOCKS = (DOWNSTREAM_PACKET_SIZE - _AEAD_OVERHEAD + 63) // 64
#: What :class:`TrialKeys` draws of a trial (block 0) and of a body
#: (blocks 1 to ``BODY_BLOCKS``): the counts, then the starts.
_TRIAL_COUNTS, _TRIAL_STARTS = np.array([1, BODY_BLOCKS]), np.array([0, 1])

#: The first two bytes of every downstream nonce: ``"dn"``.
_DN_WORD = int.from_bytes(b"dn", "little")


def downstream_nonces(channel_ids, round_indices) -> np.ndarray:
    """The nonce of each (channel, round) — ``"dn" ‖ channel (16 bits)
    ‖ round mod 2^64`` — as ``(n, 3)`` ``<u4`` rows: the one place the
    downstream nonce layout is built, for one packet or a round's."""
    if any(not 0 <= channel_id <= 0xFFFF for channel_id in channel_ids):
        raise ValueError("channel id must fit in 16 bits")
    return nonce_columns(
        np.array(channel_ids, dtype=np.uint32) << 16 | _DN_WORD,
        [index % (1 << 64) for index in round_indices])


def make_downstream_packets(
        packets: Sequence[Tuple[SessionKey, int, int, int, bytes]],
        streams: Optional[Sequence[Optional[bytes]]] = None
        ) -> List[bytes]:
    """Seal downstream packets given as ``(key, channel_id,
    round_index, kind, payload)``, each for its addressed client, over
    its stream in ``streams`` where one was drawn ahead."""
    clears = []
    for _, _, _, kind, payload in packets:
        if kind not in _KINDS:
            raise ValueError(f"unknown downstream kind {kind}")
        if len(payload) > _CAPACITY:
            raise ValueError(f"payload exceeds downstream capacity "
                             f"({_CAPACITY} bytes)")
        clears.append(_HEADER.pack(kind, len(payload))
                      + payload.ljust(_CAPACITY, b"\x00"))
    sealed = aead_seal_many(
        [key.key for key, _, _, _, _ in packets],
        downstream_nonces([channel_id for _, channel_id, _, _, _ in packets],
                          [index for _, _, index, _, _ in packets]),
        clears, streams=streams)
    assert all(len(packet) == DOWNSTREAM_PACKET_SIZE for packet in sealed)
    return sealed


def make_downstream_packet(key: SessionKey, channel_id: int,
                           round_index: int, kind: int,
                           payload: bytes) -> bytes:
    """Seal a downstream packet for the addressed client."""
    return make_downstream_packets(
        [(key, channel_id, round_index, kind, payload)])[0]


def make_downstream_chaff(rng: random.Random) -> bytes:
    """Chaff for an idle channel: uniformly random bytes, authenticating
    under nobody's key.

    One draw, and the bytes (and generator state) of one
    ``getrandbits(8)`` per byte: that is the top byte of one 32-bit
    Mersenne word, and ``getrandbits(32 * n)`` lays n such words out
    little-endian."""
    words = rng.getrandbits(32 * DOWNSTREAM_PACKET_SIZE)
    return words.to_bytes(4 * DOWNSTREAM_PACKET_SIZE, "little")[3::4]


class MissingTrialKey(LookupError):
    """A trial decryption whose key block was not drawn with its
    round."""


class TrialKeys:
    """The key blocks of one downstream round's trial decryptions.

    A member's trial is keyed by block 0 of (its ``s``, the channel
    and round's :func:`downstream_nonces` row), which §3.6.2 fixes by
    channel and round — so the blocks are planned when the round
    starts, a key column a channel in slot order, drawn beside the
    round's upstream packets (:func:`~repro.core.client.seal_upstream`)
    and read back as row slices per channel (:meth:`poly_keys`).  The
    ``bodies`` — ``(channel, row)`` of each member the mix is known to
    address — have the stream's body blocks drawn too (:meth:`bodies`)."""

    __slots__ = ("keys", "nonces", "request", "blocks", "_planned",
                 "_bodies")

    def __init__(self, round_index: int,
                 channels: Iterable[Tuple[int, np.ndarray]],
                 bodies: Iterable[Tuple[int, int]] = ()):
        channels = list(channels)
        sizes = [len(keys) for _, keys in channels]
        self._planned: Dict[int, Tuple[int, np.ndarray]] = {
            channel_id: (start, keys) for (channel_id, keys), start
            in zip(channels, accumulate([0] + sizes))}
        #: Trial rows of the draw: a key and a nonce each.
        self.keys = np.concatenate(
            [keys for _, keys in channels] or [np.empty((0, 8), np.uint32)])
        self.nonces = np.repeat(downstream_nonces(
            [channel_id for channel_id, _ in channels],
            [round_index] * len(channels)), sizes, axis=0)
        self._bodies = {leg: i for i, leg in enumerate(
            leg for leg in bodies if leg[0] in self._planned)}
        rows = [self._planned[channel_id][0] + row
                for channel_id, row in self._bodies]
        #: ``(keys, nonces, counts, starts)``: trials, then bodies;
        #: counts and starts as int columns.
        self.request = (
            np.concatenate((self.keys, self.keys[rows])),
            np.concatenate((self.nonces, self.nonces[rows])),
            np.repeat(_TRIAL_COUNTS, (len(self.keys), len(rows))),
            np.repeat(_TRIAL_STARTS, (len(self.keys), len(rows))))
        #: The drawn blocks as ``<u4`` rows, once drawn.
        self.blocks = np.empty((0, 16), dtype=np.uint32)

    def draw(self) -> None:
        """Draw the blocks in a call of their own."""
        self.blocks = np.frombuffer(chacha20._keystream_blocks(
            *self.request), dtype=np.uint32).reshape(-1, 16)

    def poly_keys(self, channel_id: int, keys: np.ndarray) -> np.ndarray:
        """The Poly1305 key of every member's trial on the channel as
        ``(n, 32)`` ``uint8`` rows, ``keys`` the members' key column in
        slot order — exactly the members it was planned for, or
        :class:`MissingTrialKey`."""
        start, planned = self._planned.get(channel_id, (0, None))
        end = start + len(keys)
        if planned is None or len(self.blocks) < end or (
                planned is not keys and not np.array_equal(planned, keys)):
            raise MissingTrialKey(
                f"no key blocks drawn for the trials of channel "
                f"{channel_id} with these members")
        return self.blocks.view(np.uint8)[start:end, :32]

    def bodies(self, firsts: Dict[int, int]) -> Dict[int, bytes]:
        """The drawn bodies by trial row, ``firsts`` the row of each
        channel's first trial."""
        bodies = self.blocks[len(self.keys):].reshape(-1, 16 * BODY_BLOCKS)
        return {firsts[channel_id] + row: bodies[i].tobytes()
                for (channel_id, row), i in self._bodies.items()
                if channel_id in firsts}


def open_downstream_packets(
        round_index: int, packets: Sequence[Tuple[int, bytes, int]],
        keys: np.ndarray, poly_keys: np.ndarray,
        bodies: Optional[Dict[int, bytes]] = None
        ) -> Dict[int, Tuple[int, bytes]]:
    """Client-side trial decryption of one round's ``(channel_id,
    packet, members)``: each member tries the packet under its own key
    — trial rows of ``keys`` and of the Poly1305 keys drawn ahead
    (:class:`TrialKeys`), in packet order, and a hit over its body in
    ``bodies``, if drawn.  Returns row → (kind, payload) for the trials
    addressed to their key's client; the others discard their packet
    as chaff."""
    counts = [members for _, _, members in packets]
    if not len(keys) == len(poly_keys) == sum(counts):
        raise MissingTrialKey("need one drawn key block per trial")
    # An SP is untrusted: an off-size packet is refused before it costs
    # a MAC lane.
    clears = aead_open_drawn(
        keys, downstream_nonces([channel_id for channel_id, _, _ in packets],
                                [round_index] * len(packets)),
        [packet if len(packet) == DOWNSTREAM_PACKET_SIZE else b""
         for _, packet, _ in packets], counts, poly_keys, bodies=bodies)
    opened: Dict[int, Tuple[int, bytes]] = {}
    for row, clear in enumerate(clears):
        if clear is None:
            continue
        kind, length = _HEADER.unpack(clear[:_HEADER.size])
        if kind in _KINDS and length <= _CAPACITY:
            opened[row] = (kind, clear[_HEADER.size:_HEADER.size + length])
    return opened


def open_downstream_packet(key: SessionKey, channel_id: int,
                           round_index: int, packet: bytes
                           ) -> Optional[Tuple[int, bytes]]:
    """One client's trial decryption of one packet: its one key block
    planned and drawn as a round's are (see
    :func:`open_downstream_packets`)."""
    keys = key_words([key.key])
    trial_keys = TrialKeys(round_index, [(channel_id, keys)])
    trial_keys.draw()
    return open_downstream_packets(
        round_index, [(channel_id, packet, 1)], keys,
        trial_keys.poly_keys(channel_id, keys)).get(0)


@dataclass(frozen=True)
class IncomingCallAnnouncement:
    """Payload of an INCOMING packet: which call is ringing."""

    call_id: int

    def encode(self) -> bytes:
        return struct.pack("<Q", self.call_id)

    @classmethod
    def decode(cls, payload: bytes) -> "IncomingCallAnnouncement":
        (call_id,) = struct.unpack("<Q", payload[:8])
        return cls(call_id)


@dataclass(frozen=True)
class ChannelGrant:
    """Payload of a GRANT packet: the channel allocated to the
    signaling caller's outgoing call."""

    channel_id: int
    call_id: int

    def encode(self) -> bytes:
        return struct.pack("<HQ", self.channel_id, self.call_id)

    @classmethod
    def decode(cls, payload: bytes) -> "ChannelGrant":
        channel_id, call_id = struct.unpack("<HQ", payload[:10])
        return cls(channel_id, call_id)
