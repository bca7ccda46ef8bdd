"""Herd clients (§3).

A client

* holds identity/short-term keys and a zone certificate (§3.2, §3.3),
* joins a zone (§3.5), establishing a symmetric session key ``s`` with
  its mix that encrypts everything it ever sends,
* keeps constant-rate chaffed links up at all times — "clients connect
  to Herd continuously, regardless of call activity" — emitting exactly
  one fixed-size packet per codec frame per link (§3.4.1),
* builds circuits (entry mix + rendezvous mix) and publishes its
  rendezvous record to receive calls anonymously (§3.3),
* participates in SP channels: manifests on every upstream packet,
  signal bit to request outgoing calls, trial-decryption of every
  downstream packet (§3.6.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.chaffing import ConstantRateChaffer
from repro.core.channel import manifest_nonces, manifest_words
from repro.core.circuit import Circuit, CircuitBuilder
from repro.core.network_coding import (
    PACKET_BLOCKS,
    packet_bytes,
    packet_cleartexts,
    upstream_nonces,
)
from repro.crypto import chacha20
from repro.crypto.chacha20 import key_words
from repro.crypto.kdf import hkdf_sha256
from repro.crypto.keys import IdentityKeyPair, SessionKey, ShortTermKeyPair
from repro.crypto.pki import Certificate
from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey
from repro.voip.codec import Codec, G711


def derive_client_mix_key(shared: bytes, client_eph_pub: bytes,
                          mix_public: bytes) -> SessionKey:
    """The session key ``s`` both sides derive at join (§3.5)."""
    key = hkdf_sha256(shared, info=b"herd-join" + client_eph_pub
                      + mix_public)
    return SessionKey(key)


@dataclass
class ChannelAttachment:
    """The client's view of one channel it attaches to (at an SP)."""

    sp_id: str
    channel_id: int
    slot: int
    sequence: int = 0


_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")
#: Blocks a row of :func:`seal_upstream` draws: its packet's, from
#: block 1, then its manifest's one.
_SEAL_COUNTS = np.array([PACKET_BLOCKS, 1])


def seal_upstream(keys: np.ndarray, sequences: Sequence[int],
                  slots: Sequence[int], signals: Sequence[bool],
                  payloads: Mapping[int, bytes],
                  draws: Optional[tuple] = None
                  ) -> Tuple[List[bytes], List[bytes], np.ndarray]:
    """Seal one round's emissions — one attachment's, or a zone's, a
    row each: its client's key words, sequence, slot and signal bit,
    and in ``payloads`` the cell it carries (chaff elsewhere, §3.4.1)
    — and draw ``draws`` (a round's :attr:`~repro.core.signaling
    .TrialKeys.request`: ``(keys, nonces, counts, starts)``, or
    ``(keys, nonces)`` for block 0 of each), in one kernel call.
    Returns the packets, the manifests and the drawn blocks as
    ``(m, 16)`` ``<u4`` rows; an out-of-range field seals nothing."""
    if min(sequences, default=0) < 0:
        raise ValueError("sequence must be non-negative")
    n = len(sequences)
    sequences = np.array(sequences, dtype=_U64)
    words = manifest_words(slots, sequences, signals)
    clear = packet_cleartexts(sequences, payloads)
    draw_keys, draw_nonces, *layout = draws if draws is not None else (
        np.empty((0, 8), dtype=_U32), np.empty((0, 3), dtype=_U32))
    m = len(draw_keys)
    counts, starts = layout or (np.ones(m, np.int64), np.zeros(m, np.int64))
    stream = np.frombuffer(chacha20._keystream_blocks(
        np.concatenate((keys, keys, draw_keys)),
        np.concatenate((upstream_nonces(sequences), manifest_nonces(slots),
                        draw_nonces)),
        np.concatenate((np.repeat(_SEAL_COUNTS, n), counts)),
        np.concatenate((np.ones(2 * n, np.int64), starts))), dtype=_U32)
    cut = 16 * PACKET_BLOCKS * n
    packets = packet_bytes(
        stream[:cut].view(_U64).reshape(n, 8 * PACKET_BLOCKS) ^ clear)
    # A manifest is the first word of its block.
    manifests = (stream[cut:cut + 16 * n:16] ^ words).view("V4").tolist()
    return packets, manifests, stream[cut + 16 * n:].reshape(-1, 16)


class HerdClient:
    """One Herd client."""

    def __init__(self, client_id: str, zone_id: str,
                 rng: Optional[random.Random] = None,
                 codec: Codec = G711, k: int = 3):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.client_id = client_id
        self.zone_id = zone_id
        self.rng = rng or random.Random(0)
        self.codec = codec
        self.k = k
        self.identity = IdentityKeyPair.generate(self.rng)
        self.short_term = ShortTermKeyPair.generate(self.rng)
        self.certificate: Optional[Certificate] = None
        #: Numeric id assigned by the mix at adoption (channel slots).
        self.numeric_id: Optional[int] = None
        self.mix_id: Optional[str] = None
        self.session_key: Optional[SessionKey] = None
        self.chaffer = ConstantRateChaffer(codec)
        self.attachments: List[ChannelAttachment] = []
        #: Bumped by whatever changes :attr:`attachments`, so that
        #: state derived from them can tell when it is stale.
        self.attachment_epoch = 0
        self.circuit: Optional[Circuit] = None
        self.in_call = False
        self.signal_pending = False

    # -- join ---------------------------------------------------------------

    def begin_join(self) -> Tuple[bytes, X25519PrivateKey]:
        """Start key establishment with the mix: returns the ephemeral
        public key to send over the mix's DTLS link."""
        eph = X25519PrivateKey.generate(self.rng)
        return eph.public_bytes, eph

    def finish_join(self, eph: X25519PrivateKey, mix_id: str,
                    mix_short_term_public: X25519PublicKey,
                    numeric_id: int, certificate: Certificate) -> None:
        """Derive ``s`` from the mix's short-term key — the key object,
        whose fixed-base table every client of the mix reads
        (DESIGN.md §16) — and take up the adoption."""
        shared = eph.exchange(mix_short_term_public)
        self.session_key = derive_client_mix_key(
            shared, eph.public_bytes, mix_short_term_public.public_bytes)
        self.mix_id = mix_id
        self.numeric_id = numeric_id
        self.certificate = certificate

    def attach(self, sp_id: str, channel_id: int, slot: int) -> None:
        if len(self.attachments) >= self.k:
            raise RuntimeError(f"client already attached to {self.k} "
                               "channels")
        self.attachments.append(ChannelAttachment(sp_id, channel_id, slot))
        self.attachment_epoch += 1

    @property
    def joined(self) -> bool:
        return self.session_key is not None

    def detach_channels(self, channel_ids) -> List[ChannelAttachment]:
        """Drop the attachments on the given channels (their SP died or
        was blacklisted, §3.6.4) while staying joined at the mix; the
        surviving attachments keep carrying chaff and any migrated
        call.  Returns the removed attachments."""
        dropped = [a for a in self.attachments
                   if a.channel_id in channel_ids]
        self.attachments = [a for a in self.attachments
                            if a.channel_id not in channel_ids]
        self.attachment_epoch += 1
        return dropped

    def leave(self) -> None:
        """Drop all session state so the client can re-join (e.g. after
        a mix or SP failure, §3.5).  The identity keys and certificate
        survive — only the attachment is reset."""
        self.session_key = None
        self.mix_id = None
        self.numeric_id = None
        self.attachments.clear()
        self.attachment_epoch += 1
        self.circuit = None
        self.in_call = False
        self.signal_pending = False

    # -- upstream packet generation (one per channel per round) -------------

    def upstream_packet(self, attachment: ChannelAttachment,
                        payload: Optional[bytes] = None
                        ) -> Tuple[bytes, bytes]:
        """The (packet, encrypted manifest) pair for one round on one
        channel, and the channel's sequence number advanced.
        ``payload`` (an onion cell) is carried only on the channel
        granted to the active call; everywhere else chaff goes out at
        the same size and rate (§3.4.1).  One row of
        :func:`seal_upstream`."""
        if not self.joined:
            raise RuntimeError("client has not joined")
        packets, manifests, _ = seal_upstream(
            key_words([self.session_key.key]), [attachment.sequence],
            [attachment.slot], [self.signal_pending],
            {} if payload is None else {0: payload})
        attachment.sequence += 1
        return packets[0], manifests[0]

    def request_outgoing_call(self) -> None:
        """Set the signaling bit on subsequent chaff manifests
        (§3.6.2)."""
        self.signal_pending = True

    def clear_signal(self) -> None:
        self.signal_pending = False

    # -- circuits ------------------------------------------------------------

    def build_circuit(self, builder: CircuitBuilder,
                      path: List[str]) -> Circuit:
        """Build the client's standing circuit (entry mix + rendezvous
        mix, §3.3)."""
        self.circuit = builder.build(path, self.client_id)
        return self.circuit

    @property
    def rendezvous_mix(self) -> str:
        if self.circuit is None:
            raise RuntimeError("no circuit built yet")
        return self.circuit.rendezvous_mix
