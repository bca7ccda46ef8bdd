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
from typing import List, Optional, Sequence, Tuple

from repro.crypto.chacha20 import aead_open_many, aead_seal_many
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


def open_downstream_packets(
        trials: Sequence[Tuple[SessionKey, int, int, bytes]]
        ) -> List[Optional[Tuple[int, bytes]]]:
    """Client-side trial decryption of ``(key, channel_id,
    round_index, packet)`` trials — one client's, or every channel
    member's of a round, each under its own key.  Returns (kind,
    payload) where the packet is addressed to that key's client, else
    None ("others discard the packet as chaff")."""
    # An SP is untrusted: an off-size packet is refused before it costs
    # a key block or a MAC lane.
    sized = [i for i, (_, _, _, packet) in enumerate(trials)
             if len(packet) == DOWNSTREAM_PACKET_SIZE]
    clears = aead_open_many(
        [trials[i][0].key for i in sized],
        [_nonce(trials[i][1], trials[i][2]) for i in sized],
        [trials[i][3] for i in sized])
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
    """One client's trial decryption of one packet (see
    :func:`open_downstream_packets`)."""
    return open_downstream_packets(
        [(key, channel_id, round_index, packet)])[0]


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
