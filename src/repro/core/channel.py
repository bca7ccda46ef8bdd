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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto import chacha20
from repro.crypto.chacha20 import key_words, nonce_columns
from repro.crypto.keys import SessionKey

MANIFEST_BYTES = 4
_SEQ_MOD = 1 << 25
_MAX_CLIENT_ID = 63
#: Members one channel holds: the manifest's 6-bit in-channel id.
CHANNEL_CAPACITY = _MAX_CLIENT_ID + 1

#: Word 0 of every manifest nonce: ``"mf\0\0"``.
_MF_WORD = int.from_bytes(b"mf\x00\x00", "little")
_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")


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


def manifest_nonces(slots) -> np.ndarray:
    """The manifest nonce of each round slot, ``"mf\0\0" ‖ slot``, as
    ``(n, 3)`` ``<u4`` rows: the one place the manifest nonce layout is
    built, for one manifest or a round's."""
    return nonce_columns(_MF_WORD, slots)


def manifest_words(client_ids, sequences: np.ndarray,
                   signals) -> np.ndarray:
    """Each manifest's cleartext word as a ``<u4`` column, the ids
    checked (``sequences`` are ``<u8``, so never negative)."""
    client_ids = np.asarray(client_ids, dtype=np.int64)
    if len(client_ids) and not 0 <= client_ids.min() \
            <= client_ids.max() <= _MAX_CLIENT_ID:
        raise ValueError("client id must fit in 6 bits")
    return (client_ids.astype(_U64)
            | np.asarray(signals, dtype=_U64) << np.uint64(6)
            | (sequences % np.uint64(_SEQ_MOD)) << np.uint64(7)
            ).astype(_U32)


def encode_manifest(manifest: ChannelManifest, key: SessionKey,
                    slot: int) -> bytes:
    """Encrypt a manifest with the client's session key for a round
    slot."""
    stream = chacha20._keystream_blocks(key_words([key.key]),
                                        manifest_nonces([slot]), [1], 1)
    word = manifest_words([manifest.client_id],
                          np.array([manifest.sequence], dtype=_U64),
                          [manifest.signal])
    return (np.frombuffer(stream, dtype=_U32)[:1] ^ word).tobytes()


def open_manifests(data: np.ndarray, keys, slots, expected
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decrypt a ``<u4`` column of manifests — each under its key
    (``bytes`` or a word column) at its slot — in one kernel call, a
    manifest the first word of its block (:func:`read_manifests`)."""
    stream = chacha20._keystream_blocks(keys, manifest_nonces(slots),
                                        [1] * len(data), 1)
    return read_manifests(np.frombuffer(stream, dtype=_U32)[::16], data,
                          expected)


def read_manifests(pads: np.ndarray, data: np.ndarray, expected
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-channel ids, full sequences and signal bits, as columns,
    of a ``<u4`` column of manifests XOR ``pads`` (the first word of
    each one's keystream block).  ``expected`` is the mix's next
    expected sequence of each sender: the 25 bits sent resolve to the
    nearest sequence at or after ``expected - 2^24``."""
    words = pads ^ data
    expected = np.asarray(expected, dtype=_U64)
    half, period = np.uint64(_SEQ_MOD // 2), np.uint64(_SEQ_MOD)
    base = np.where(expected > half, expected - half, 0).astype(_U64)
    sequences = base - base % period + (words >> 7).astype(_U64)
    sequences += period * (sequences < base)
    return words & 0x3F, sequences, (words >> 6 & 1).astype(bool)


def decode_manifests(manifests: Sequence[Tuple[bytes, SessionKey, int, int]]
                     ) -> List[ChannelManifest]:
    """Decrypt manifests given as ``(data, key, slot,
    expected_sequence)`` in one kernel call (:func:`open_manifests`)."""
    if any(len(data) != MANIFEST_BYTES for data, _, _, _ in manifests):
        raise ValueError("manifest must be 4 bytes")
    if not manifests:
        return []
    ids, sequences, signals = open_manifests(
        np.frombuffer(b"".join([data for data, _, _, _ in manifests]),
                      dtype=_U32),
        [key.key for _, key, _, _ in manifests],
        [slot for _, _, slot, _ in manifests],
        [expected for _, _, _, expected in manifests])
    return list(map(ChannelManifest, ids.tolist(), sequences.tolist(),
                    signals.tolist()))


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
    #: Per in-channel id, the sequence the mix expects next: 0 at
    #: attach, then one past the last decoded manifest (:meth:`resync`).
    next_sequences: List[int] = field(default_factory=list)

    def add_member(self, global_client: int) -> int:
        """Attach a client; returns its in-channel id."""
        if len(self.members) >= CHANNEL_CAPACITY:
            raise ValueError("channel is full (64 members)")
        in_channel_id = len(self.members)
        self.members[in_channel_id] = global_client
        self.next_sequences.append(0)
        return in_channel_id

    def resync(self, sequences: Sequence[int]) -> None:
        """Follow a round's decoded sequences, in-channel ids 0… in
        order (§3.6.1: manifests resynchronize the mix after loss)."""
        self.next_sequences[:len(sequences)] = [
            sequence + 1 for sequence in sequences]

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
