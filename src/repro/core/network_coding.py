"""Upstream XOR network coding and chaff prediction (§3.6.1).

"In the upstream direction, in each round, the SP receives a packet
from each client attached to a channel.  Because at most one client can
be active in each channel, we can use a simple form of network coding.
The SP simply forwards to the mix the XOR of the client packets
received in each of the r channels, of which at most one is a VoIP
packet and the rest are chaff.  Because the ciphertext of the chaff
packets from the idle clients is predictable to the mix (the cleartext
contains a sequence number and the packets include the IVs), the mix
can trivially recover the r payload packets from the r XORs it
receives."

Packet format on client links (fixed :data:`CODED_PACKET_SIZE` bytes,
encrypted with the client↔mix session key ``s`` via ChaCha20 keyed by
the packet sequence number — the "IV" the paper mentions):

    1 byte    type: 0x00 chaff, 0x01 payload
    8 bytes   sequence number
    N bytes   payload (zeros for chaff)

The mix regenerates each idle client's chaff ciphertext bit-for-bit
with :class:`ChaffPredictor` and XORs it out; whatever remains is the
active client's encrypted packet (or nothing, if the channel is idle).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.chacha20 import CipherPlan, seal_plans, xor_bytes
from repro.crypto.keys import SessionKey

#: Payload capacity of one coded packet — sized for an onion cell.
CODED_PAYLOAD = 292
_TYPE_CHAFF = 0
_TYPE_PAYLOAD = 1
_HEADER = struct.Struct("<BQ")
CODED_PACKET_SIZE = _HEADER.size + CODED_PAYLOAD

_UP_PREFIX = b"up\x00\x00"


def _encode_cleartext(kind: int, sequence: int, payload: bytes) -> bytes:
    if len(payload) > CODED_PAYLOAD:
        raise ValueError("payload exceeds coded packet capacity")
    return (_HEADER.pack(kind, sequence)
            + payload.ljust(CODED_PAYLOAD, b"\x00"))


def _plan(key: SessionKey, sequence: int, message: bytes) -> CipherPlan:
    return key.key, _UP_PREFIX + struct.pack("<Q", sequence), message


def plan_chaff_packet(key: SessionKey, sequence: int) -> CipherPlan:
    return _plan(key, sequence,
                 _encode_cleartext(_TYPE_CHAFF, sequence, b""))


def plan_payload_packet(key: SessionKey, sequence: int,
                        payload: bytes) -> CipherPlan:
    return _plan(key, sequence,
                 _encode_cleartext(_TYPE_PAYLOAD, sequence, payload))


def make_chaff_packet(key: SessionKey, sequence: int) -> bytes:
    """The encrypted chaff packet an idle client sends at ``sequence``."""
    return seal_plans([plan_chaff_packet(key, sequence)])[0]


def make_payload_packet(key: SessionKey, sequence: int,
                        payload: bytes) -> bytes:
    """The encrypted packet an active client sends carrying ``payload``
    (an onion cell)."""
    return seal_plans([plan_payload_packet(key, sequence, payload)])[0]


def decrypt_packets(packets: Sequence[Tuple[SessionKey, int, bytes]]
                    ) -> List[Tuple[bool, bytes]]:
    """Decrypt client packets given as ``(key, sequence, ciphertext)``;
    returns (is_payload, payload_bytes) for each.

    Raises :class:`ValueError` if an embedded sequence number does not
    match (corruption, or wrong keystream)."""
    if any(len(ciphertext) != CODED_PACKET_SIZE
           for _, _, ciphertext in packets):
        raise ValueError("coded packet has the wrong size")
    out = []
    for (_, sequence, _), clear in zip(
            packets, seal_plans([_plan(*packet) for packet in packets])):
        kind, seq = _HEADER.unpack(clear[:_HEADER.size])
        if seq != sequence:
            raise ValueError("packet sequence mismatch after decryption")
        if kind == _TYPE_CHAFF:
            out.append((False, b""))
        elif kind == _TYPE_PAYLOAD:
            out.append((True, clear[_HEADER.size:]))
        else:
            raise ValueError(f"unknown packet type {kind}")
    return out


def decrypt_packet(key: SessionKey, sequence: int,
                   ciphertext: bytes) -> Tuple[bool, bytes]:
    """Decrypt one client packet (see :func:`decrypt_packets`)."""
    return decrypt_packets([(key, sequence, ciphertext)])[0]


class ChaffPredictor:
    """Mix-side oracle for idle clients' chaff ciphertext.

    "The ciphertext of the chaff packets from the idle clients is
    predictable to the mix" — given the shared session key and the
    sequence number from the client's manifest, the ciphertext is
    recomputed exactly.
    """

    def __init__(self, client_keys: Dict[int, SessionKey]):
        self._keys = dict(client_keys)

    def add_client(self, client: int, key: SessionKey) -> None:
        self._keys[client] = key

    def predict_many(self, chaff: Sequence[Tuple[int, int]]
                     ) -> List[bytes]:
        """The chaff ciphertext of every ``(client, sequence)``, from
        one kernel call."""
        plans = []
        for client, sequence in chaff:
            key = self._keys.get(client)
            if key is None:
                raise KeyError(f"no session key for client {client}")
            plans.append(plan_chaff_packet(key, sequence))
        return seal_plans(plans)

    def predict(self, client: int, sequence: int) -> bytes:
        return self.predict_many([(client, sequence)])[0]

    def key_of(self, client: int) -> SessionKey:
        return self._keys[client]


#: One channel's upstream round as the mix sees it:
#: ``(xor_packet, manifest_entries, active_client)``.
ChannelRound = Tuple[bytes, Sequence[Tuple[int, int, bool]], Optional[int]]


def decode_rounds(rounds: Sequence[ChannelRound],
                  predictor: ChaffPredictor
                  ) -> List[Tuple[Optional[int], bytes, List[int]]]:
    """Mix-side decode of any number of channel rounds (Fig. 2b).

    Each round is ``(xor_packet, manifest_entries, active_client)``:

    xor_packet:
        The XOR the SP forwarded for the channel.
    manifest_entries:
        Decrypted manifests as ``(client, sequence, signal_bit)`` for
        every client whose packet was included in the XOR.
    active_client:
        The client currently holding the channel's call, if any.  The
        *mix* allocated the call to the channel (§3.6.3), so this is
        mix-local state, not something inferred from traffic.

    Returns ``(sender, payload, signalers)`` per round, where
    ``sender``/``payload`` identify the round's at-most-one VoIP packet
    (``None``/b"" if every packet was chaff — including when the active
    client had nothing to send) and ``signalers`` lists clients whose
    manifest had the signaling bit set (outgoing-call requests,
    §3.6.2).

    The mix XORs out the *predicted chaff* of every idle client — one
    :meth:`ChaffPredictor.predict_many` for all the rounds; the
    residue is the active client's encrypted packet, decrypted with its
    session key.  With no active client the residue must be zero — a
    nonzero residue means a misbehaving SP or client, and the caller is
    expected to trigger the full-packet audit of §3.6.1 ("the mix asks
    the SP to send the full packets from which the packets were
    computed").
    """
    if any(len(xor_packet) != CODED_PACKET_SIZE
           for xor_packet, _, _ in rounds):
        raise ValueError("XOR packet has the wrong size")
    idle = [[(client, seq) for client, seq, _ in entries
             if client != active] for _, entries, active in rounds]
    chaff = predictor.predict_many(
        [sender for senders in idle for sender in senders])
    decoded: List[Tuple[Optional[int], bytes, List[int]]] = []
    #: (index into ``decoded``, active client, its sequence, residue)
    to_decrypt = []
    peeled = 0
    for (xor_packet, entries, active), senders in zip(rounds, idle):
        residue = xor_bytes(xor_packet,
                            *chaff[peeled:peeled + len(senders)])
        peeled += len(senders)
        signalers = [client for client, _, signal in entries if signal]
        if active is None:
            if residue != b"\x00" * CODED_PACKET_SIZE:
                raise ValueError(
                    "XOR round residue nonzero with no active client: "
                    "misbehaving SP or client (full-packet audit "
                    "required)")
        else:
            active_seq = None
            for client, seq, _ in entries:
                if client == active:
                    active_seq = seq
            if active_seq is None:
                raise ValueError(
                    "active client missing from round manifests")
            to_decrypt.append((len(decoded), active, active_seq, residue))
        decoded.append((None, b"", signalers))
    opened = decrypt_packets([(predictor.key_of(active), seq, residue)
                              for _, active, seq, residue in to_decrypt])
    for (i, active, _, _), (is_payload, payload) in zip(to_decrypt,
                                                        opened):
        if is_payload:
            decoded[i] = (active, payload, decoded[i][2])
    return decoded


def decode_round(xor_packet: bytes,
                 manifest_entries: Sequence[Tuple[int, int, bool]],
                 predictor: ChaffPredictor,
                 active_client: Optional[int] = None
                 ) -> Tuple[Optional[int], bytes, List[int]]:
    """Mix-side decode of one channel round (see
    :func:`decode_rounds`)."""
    return decode_rounds(
        [(xor_packet, manifest_entries, active_client)], predictor)[0]
