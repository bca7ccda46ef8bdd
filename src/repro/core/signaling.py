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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.chacha20 import (
    aead_open_drawn,
    aead_seal_many,
    seal_plans_and_draw,
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

_DOWN_PREFIX = b"dn"


def _nonce(channel_id: int, round_index: int) -> bytes:
    return _DOWN_PREFIX + struct.pack("<HQ", channel_id,
                                      round_index % (1 << 64))


def make_downstream_packets(
        packets: Sequence[Tuple[SessionKey, int, int, int, bytes]]
        ) -> List[bytes]:
    """Seal downstream packets given as ``(key, channel_id,
    round_index, kind, payload)``, each for its addressed client."""
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
        [_nonce(channel_id, round_index)
         for _, channel_id, round_index, _, _ in packets],
        clears)
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

    A member's trial is checked under the Poly1305 key in block 0 of
    (its key ``s``, :func:`_nonce` of the channel and round), and
    §3.6.2 fixes that nonce by channel and round — so the blocks are
    planned when the round starts, channel by channel with the members
    in slot order (:attr:`requests`, one nonce per channel), drawn
    beside the round's upstream packets
    (:func:`~repro.core.client.seal_upstream`) into :attr:`blocks`, and
    read back per channel when its downstream packet arrives
    (:meth:`poly_keys`)."""

    __slots__ = ("requests", "blocks", "_planned")

    def __init__(self, round_index: int,
                 channels: Iterable[Tuple[int, Sequence[SessionKey]]]):
        #: ``(key, nonce)`` per trial: what the draw takes.
        self.requests: List[Tuple[bytes, bytes]] = []
        #: Block 0 of every request, back to back, once drawn.
        self.blocks = b""
        self._planned: Dict[int, Tuple[int, Sequence[SessionKey]]] = {}
        for channel_id, keys in channels:
            nonce = _nonce(channel_id, round_index)
            self._planned[channel_id] = (len(self.requests), keys)
            self.requests += [(key.key, nonce) for key in keys]

    def poly_keys(self, channel_id: int,
                  keys: Sequence[SessionKey]) -> List[bytes]:
        """The Poly1305 key of every member's trial on the channel,
        ``keys`` in slot order — exactly the members it was planned
        for, or :class:`MissingTrialKey`."""
        start, planned = self._planned.get(channel_id, (0, None))
        end = 64 * (start + len(keys))
        if planned is None or planned != keys or len(self.blocks) < end:
            raise MissingTrialKey(
                f"no key blocks drawn for the trials of channel "
                f"{channel_id} with these members")
        return [self.blocks[at:at + 32]
                for at in range(64 * start, end, 64)]


def open_downstream_packets(
        trials: Sequence[Tuple[SessionKey, int, int, bytes]],
        poly_keys: Sequence[bytes]
        ) -> List[Optional[Tuple[int, bytes]]]:
    """Client-side trial decryption of ``(key, channel_id,
    round_index, packet)`` trials — one client's, or every channel
    member's of a round, each under its own key — with each trial's
    Poly1305 key drawn ahead (:class:`TrialKeys`).  Returns (kind,
    payload) where the packet is addressed to that key's client, else
    None ("others discard the packet as chaff")."""
    if len(poly_keys) != len(trials):
        raise MissingTrialKey("need one drawn key block per trial")
    # An SP is untrusted: an off-size packet is refused before it costs
    # a MAC lane.
    sized, keys, nonces, packets, lanes = [], [], [], [], []
    nonce_of: Dict[Tuple[int, int], bytes] = {}
    for i, ((key, channel_id, round_index, packet), poly_key) in \
            enumerate(zip(trials, poly_keys)):
        if len(packet) != DOWNSTREAM_PACKET_SIZE:
            continue
        nonce = nonce_of.get((channel_id, round_index))
        if nonce is None:
            nonce = nonce_of[channel_id, round_index] = _nonce(
                channel_id, round_index)
        sized.append(i)
        keys.append(key.key)
        nonces.append(nonce)
        packets.append(packet)
        lanes.append(poly_key)
    clears = aead_open_drawn(keys, nonces, packets, lanes)
    opened: List[Optional[Tuple[int, bytes]]] = [None] * len(trials)
    for i, clear in zip(sized, clears):
        if clear is None:
            continue
        kind, length = _HEADER.unpack(clear[:_HEADER.size])
        if kind in _KINDS and length <= _CAPACITY:
            opened[i] = (kind, clear[_HEADER.size:_HEADER.size + length])
    return opened


def open_downstream_packet(key: SessionKey, channel_id: int,
                           round_index: int, packet: bytes
                           ) -> Optional[Tuple[int, bytes]]:
    """One client's trial decryption of one packet: its one key block
    planned and drawn as a round's are (see
    :func:`open_downstream_packets`)."""
    trial_keys = TrialKeys(round_index, [(channel_id, (key,))])
    _, trial_keys.blocks = seal_plans_and_draw([], trial_keys.requests)
    return open_downstream_packets(
        [(key, channel_id, round_index, packet)],
        trial_keys.poly_keys(channel_id, (key,)))[0]


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
