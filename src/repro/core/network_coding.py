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
Decrypting that packet is one more XOR, with the active client's
keystream, so :func:`decode_rounds` asks the predictor for it in the
same kernel call as the chaff: a round's whole mix-side decode is one
:meth:`ChaffPredictor.peel_many`.
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


#: What every chaff cleartext ends in.
_ZERO_PAYLOAD = bytes(CODED_PAYLOAD)


def _plan(key: SessionKey, sequence: int, message: bytes) -> CipherPlan:
    return key.key, _UP_PREFIX + struct.pack("<Q", sequence), message


def plan_chaff_packet(key: SessionKey, sequence: int) -> CipherPlan:
    return _plan(key, sequence,
                 _HEADER.pack(_TYPE_CHAFF, sequence) + _ZERO_PAYLOAD)


def plan_payload_packet(key: SessionKey, sequence: int,
                        payload: bytes) -> CipherPlan:
    if len(payload) > CODED_PAYLOAD:
        raise ValueError("payload exceeds coded packet capacity")
    return _plan(key, sequence,
                 _HEADER.pack(_TYPE_PAYLOAD, sequence)
                 + payload.ljust(CODED_PAYLOAD, b"\x00"))


def make_chaff_packet(key: SessionKey, sequence: int) -> bytes:
    """The encrypted chaff packet an idle client sends at ``sequence``."""
    return seal_plans([plan_chaff_packet(key, sequence)])[0]


def make_payload_packet(key: SessionKey, sequence: int,
                        payload: bytes) -> bytes:
    """The encrypted packet an active client sends carrying ``payload``
    (an onion cell)."""
    return seal_plans([plan_payload_packet(key, sequence, payload)])[0]


def _open_cleartext(clear: bytes, sequence: int) -> Tuple[bool, bytes]:
    """(is_payload, payload_bytes) of one decrypted client packet
    whose manifest said ``sequence``."""
    kind, seq = _HEADER.unpack_from(clear)
    if seq != sequence:
        raise ValueError("packet sequence mismatch after decryption")
    if kind == _TYPE_CHAFF:
        return False, b""
    if kind == _TYPE_PAYLOAD:
        return True, clear[_HEADER.size:]
    raise ValueError(f"unknown packet type {kind}")


def decrypt_packets(packets: Sequence[Tuple[SessionKey, int, bytes]]
                    ) -> List[Tuple[bool, bytes]]:
    """Decrypt client packets given as ``(key, sequence, ciphertext)``;
    returns (is_payload, payload_bytes) for each.

    Raises :class:`ValueError` if an embedded sequence number does not
    match (corruption, or wrong keystream)."""
    if any(len(ciphertext) != CODED_PACKET_SIZE
           for _, _, ciphertext in packets):
        raise ValueError("coded packet has the wrong size")
    return [_open_cleartext(clear, sequence)
            for (_, sequence, _), clear in zip(
                packets, seal_plans([_plan(*packet) for packet in packets]))]


def decrypt_packet(key: SessionKey, sequence: int,
                   ciphertext: bytes) -> Tuple[bool, bytes]:
    """Decrypt one client packet (see :func:`decrypt_packets`)."""
    return decrypt_packets([(key, sequence, ciphertext)])[0]


#: Sealed, the keystream one coded packet is encrypted under.
_ZERO_PACKET = bytes(CODED_PACKET_SIZE)


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

    def peel_many(self, senders: Sequence[Tuple[int, int, bool]]
                  ) -> List[bytes]:
        """What the mix XORs out of a round for every ``(client,
        sequence, active)`` sender, from one kernel call: an idle
        client's chaff ciphertext, an active client's keystream —
        under which what is left of the round is that client's
        cleartext."""
        plans = []
        for client, sequence, active in senders:
            key = self._keys.get(client)
            if key is None:
                raise KeyError(f"no session key for client {client}")
            plans.append(_plan(key, sequence, _ZERO_PACKET) if active
                         else plan_chaff_packet(key, sequence))
        return seal_plans(plans)

    def predict_many(self, chaff: Sequence[Tuple[int, int]]
                     ) -> List[bytes]:
        """The chaff ciphertext of every ``(client, sequence)``, from
        one kernel call."""
        return self.peel_many([(client, sequence, False)
                               for client, sequence in chaff])

    def predict(self, client: int, sequence: int) -> bytes:
        return self.predict_many([(client, sequence)])[0]


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

    The mix XORs out what it can compute of every sender — the
    *predicted chaff* of the idle clients and the keystream of the
    active one, all the rounds' in one
    :meth:`ChaffPredictor.peel_many` — which leaves the active
    client's cleartext packet, checked as :func:`decrypt_packets`
    checks it (sequence, packet type).  With no active client what is
    left must be zero — a nonzero residue means a misbehaving SP or
    client, and the caller is expected to trigger the full-packet audit
    of §3.6.1 ("the mix asks the SP to send the full packets from which
    the packets were computed").

    The rounds are validated before any cipher work is spent on them:
    a wrong-size XOR packet, an active client missing from its round's
    manifests or a sender without a session key refuses the whole call
    ahead of the kernel.
    """
    if any(len(xor_packet) != CODED_PACKET_SIZE
           for xor_packet, _, _ in rounds):
        raise ValueError("XOR packet has the wrong size")
    senders = []
    #: per round: how many of ``senders`` are its, the active client's
    #: sequence
    shapes = []
    for _, entries, active in rounds:
        peeled = [(client, seq, False) for client, seq, _ in entries
                  if client != active]
        active_seq = None
        if active is not None:
            for client, seq, _ in entries:
                if client == active:
                    active_seq = seq
            if active_seq is None:
                raise ValueError(
                    "active client missing from round manifests")
            peeled.append((active, active_seq, True))
        senders.extend(peeled)
        shapes.append((len(peeled), active_seq))
    masks = predictor.peel_many(senders)
    decoded: List[Tuple[Optional[int], bytes, List[int]]] = []
    #: (index into ``decoded``, active client, its sequence, cleartext)
    to_open = []
    start = 0
    for (xor_packet, entries, active), (n, active_seq) in zip(rounds,
                                                              shapes):
        left = xor_bytes(xor_packet, *masks[start:start + n])
        start += n
        if active is None:
            if left != _ZERO_PACKET:
                raise ValueError(
                    "XOR round residue nonzero with no active client: "
                    "misbehaving SP or client (full-packet audit "
                    "required)")
        else:
            to_open.append((len(decoded), active, active_seq, left))
        decoded.append((None, b"", [client for client, _, signal
                                    in entries if signal]))
    for i, active, active_seq, clear in to_open:
        is_payload, payload = _open_cleartext(clear, active_seq)
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
