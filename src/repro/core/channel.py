"""Channels and encrypted packet manifests (§3.6.1–3.6.2).

Clients attached to an SP are partitioned into *channels*; each channel
supports at most one active call.  Along with each upstream XOR packet,
the SP forwards the 4-byte *manifests* attached to each client packet:
"Each of these manifests is 4 bytes long, encrypted with s, and
includes the client's id within the channel, packet sequence number,
and a signaling bit."

Manifest cleartext layout (4 bytes)::

    bits 0-5    client id within the channel (0..63)
    bit  6      signaling bit (outgoing-call request, §3.6.2)
    bits 7-31   packet sequence number modulo 2^25

The manifest is XOR-encrypted with a keystream from the client's
session key ``s`` (nonce bound to the *manifest slot index* within the
round so the mix — which knows the channel membership — can decrypt
slot i with client i's key).  The truncated sequence number is enough
for the mix to resynchronize after "lost or delayed packets"; the full
64-bit sequence is reconstructed against the mix's expected counter.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto import chacha20
from repro.crypto.chacha20 import CipherPlan, seal_plans
from repro.crypto.keys import SessionKey

MANIFEST_BYTES = 4
_SEQ_MOD = 1 << 25
_MAX_CLIENT_ID = 63
#: Members one channel holds: the manifest's 6-bit in-channel id.
CHANNEL_CAPACITY = _MAX_CLIENT_ID + 1

_MANIFEST_PREFIX = b"mf\x00\x00"
_WORD = struct.Struct("<I")
_U32 = np.dtype("<u4")


def _check_fields(client_id: int, sequence: int) -> None:
    if not 0 <= client_id <= _MAX_CLIENT_ID:
        raise ValueError("client id must fit in 6 bits")
    if sequence < 0:
        raise ValueError("sequence must be non-negative")


@dataclass(frozen=True)
class ChannelManifest:
    """One decoded manifest: who sent packet #seq, and the signal bit."""

    client_id: int
    sequence: int
    signal: bool

    def __post_init__(self):
        _check_fields(self.client_id, self.sequence)


#: The manifest nonce of every slot a channel can have.
_SLOT_NONCES = tuple(_MANIFEST_PREFIX + struct.pack("<Q", slot)
                     for slot in range(CHANNEL_CAPACITY))


def _slot_nonce(slot: int) -> bytes:
    if 0 <= slot < CHANNEL_CAPACITY:
        return _SLOT_NONCES[slot]
    return _MANIFEST_PREFIX + struct.pack("<Q", slot)


def plan_manifest_word(client_id: int, sequence: int, signal: bool,
                       key: SessionKey, slot: int) -> CipherPlan:
    """The cipher call that encrypts the manifest of packet
    ``sequence`` from in-channel client ``client_id`` for a round
    slot: :func:`plan_manifest` without the :class:`ChannelManifest`
    object (one is sent per attachment per round), with its checks."""
    _check_fields(client_id, sequence)
    word = client_id | (int(signal) << 6) | ((sequence % _SEQ_MOD) << 7)
    return key.key, _slot_nonce(slot), _WORD.pack(word)


def plan_manifest(manifest: ChannelManifest, key: SessionKey,
                  slot: int) -> CipherPlan:
    """The cipher call that encrypts a manifest for a round slot."""
    return plan_manifest_word(manifest.client_id, manifest.sequence,
                              manifest.signal, key, slot)


def encode_manifest(manifest: ChannelManifest, key: SessionKey,
                    slot: int) -> bytes:
    """Encrypt a manifest with the client's session key for a round
    slot."""
    return seal_plans([plan_manifest(manifest, key, slot)])[0]


def decode_manifest_words(
        manifests: Sequence[Tuple[bytes, SessionKey, int, int]]
        ) -> List[Tuple[int, int, bool]]:
    """Decrypt manifests given as ``(data, key, slot,
    expected_sequence)`` in one kernel call; returns each one's
    ``(client_id, sequence, signal)`` with the full sequence number
    reconstructed.

    ``expected_sequence`` is the mix's next-expected counter for the
    client; the truncated 25-bit value is resolved to the nearest full
    sequence at or after ``expected_sequence - _SEQ_MOD // 2``.
    """
    if any(len(data) != MANIFEST_BYTES for data, _, _, _ in manifests):
        raise ValueError("manifest must be 4 bytes")
    if not manifests:
        return []
    # A manifest is one word: XOR it with the first word of its
    # keystream block, all of them as one array.
    stream = chacha20._keystream_blocks(
        [key.key for _, key, _, _ in manifests],
        [_slot_nonce(slot) for _, _, slot, _ in manifests],
        [1] * len(manifests), 1)
    keystream = np.frombuffer(stream, dtype=_U32)[::16]
    data = np.frombuffer(b"".join([data for data, _, _, _ in manifests]),
                         dtype=_U32)
    words = (keystream ^ data).tolist()
    decoded = []
    for word, (_, _, _, expected_sequence) in zip(words, manifests):
        seq_low = word >> 7
        base = max(0, expected_sequence - _SEQ_MOD // 2)
        candidate = (base - base % _SEQ_MOD) + seq_low
        if candidate < base:
            candidate += _SEQ_MOD
        decoded.append((word & 0x3F, candidate, bool((word >> 6) & 1)))
    return decoded


def decode_manifests(manifests: Sequence[Tuple[bytes, SessionKey, int, int]]
                     ) -> List[ChannelManifest]:
    """:func:`decode_manifest_words`, each manifest as a
    :class:`ChannelManifest`."""
    return [ChannelManifest(*fields)
            for fields in decode_manifest_words(manifests)]


def decode_manifest(data: bytes, key: SessionKey, slot: int,
                    expected_sequence: int) -> ChannelManifest:
    """Decrypt one manifest (see :func:`decode_manifests`)."""
    return decode_manifests([(data, key, slot, expected_sequence)])[0]


@dataclass
class Channel:
    """One channel at an SP/mix: its member clients and call state.

    ``members`` maps the in-channel client id (0..63) to the global
    client identifier.  ``active_call`` holds the in-channel id of the
    client currently on a call, or None.
    """

    channel_id: int
    members: Dict[int, int] = field(default_factory=dict)
    active_call: Optional[int] = None

    def add_member(self, global_client: int) -> int:
        """Attach a client; returns its in-channel id."""
        if len(self.members) >= CHANNEL_CAPACITY:
            raise ValueError("channel is full (64 members)")
        in_channel_id = len(self.members)
        self.members[in_channel_id] = global_client
        return in_channel_id

    def member_count(self) -> int:
        return len(self.members)

    @property
    def is_busy(self) -> bool:
        return self.active_call is not None

    def start_call(self, in_channel_id: int) -> None:
        if in_channel_id not in self.members:
            raise KeyError(f"client slot {in_channel_id} not in channel")
        if self.is_busy:
            raise RuntimeError(f"channel {self.channel_id} already busy")
        self.active_call = in_channel_id

    def end_call(self) -> None:
        self.active_call = None
