"""Layered (onion) encryption for Herd circuits (§3.2).

"Layered encryption provides bitwise unlinkability, and hides content
and routing information from both individual mixes and eavesdroppers."
Clients build circuits incrementally, negotiating a symmetric key with
each mix on the circuit; a VoIP cell sent by the caller is wrapped in
one stream-cipher layer per hop, and each mix peels exactly one layer.

Cells are fixed-size (padded), so every layer's output has identical
length — a requirement for bitwise unlinkability, since a length change
at each hop would trivially correlate links.  An end-to-end MAC (keyed
with the innermost hop's ``*_mac`` key) detects tampering without
revealing anything to intermediate mixes.

Cell layout (cleartext, before any layer is applied)::

    2 bytes   payload length
    N bytes   payload
    pad       zeros up to CELL_PAYLOAD
    16 bytes  truncated HMAC-SHA256 over (length || payload)

Each hop applies ChaCha20 with its forward (or backward) key and a
nonce derived from the cell sequence number — identical sequence
numbering at every hop keeps the construction stateless for the mixes
beyond per-circuit counters.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto import chacha20
from repro.crypto.chacha20 import ChaCha20Poly1305, open_record, seal_record
from repro.crypto.kdf import derive_keys, CIRCUIT_KEY_LABELS

#: Usable payload bytes per cell.  Sized to hold one 20 ms G.711 RTP
#: packet (160 bytes payload + 12 bytes RTP header) with headroom for
#: signaling.
CELL_PAYLOAD = 256
_LEN = struct.Struct("<H")
_MAC_LEN = 16
CELL_SIZE = _LEN.size + CELL_PAYLOAD + _MAC_LEN


@dataclass(frozen=True)
class HopKeys:
    """The four symmetric keys a client shares with one circuit hop."""

    forward: bytes
    backward: bytes
    forward_mac: bytes
    backward_mac: bytes

    @classmethod
    def from_shared_secret(cls, shared_secret: bytes,
                           context: bytes = b"") -> "HopKeys":
        keys = derive_keys(shared_secret, CIRCUIT_KEY_LABELS,
                           context=context)
        return cls(forward=keys["forward"], backward=keys["backward"],
                   forward_mac=keys["forward_mac"],
                   backward_mac=keys["backward_mac"])


class OnionCircuitKeys:
    """The client-side view of a circuit: an ordered list of hop keys.

    ``hops[0]`` is the first mix (closest to the client); ``hops[-1]``
    is the exit (rendezvous-facing) mix.
    """

    def __init__(self, hops: Sequence[HopKeys]):
        if not hops:
            raise ValueError("a circuit needs at least one hop")
        self.hops: List[HopKeys] = list(hops)

    def __len__(self) -> int:
        return len(self.hops)


def _nonce(direction: bytes, sequence: int) -> bytes:
    if len(direction) != 4:
        raise ValueError("direction tag must be 4 bytes")
    return direction + struct.pack("<Q", sequence)


def _mac(key: bytes, data: bytes) -> bytes:
    return hmac.digest(key, data, "sha256")[:_MAC_LEN]


def _check_capacity(length: int) -> None:
    if length > CELL_PAYLOAD:
        raise ValueError(
            f"payload ({length} bytes) exceeds cell capacity "
            f"({CELL_PAYLOAD})")


def _check_size(cell: bytes) -> None:
    """Where a cell of any other size stops, ahead of any cipher work:
    a relay must not spend it on such a cell, let alone forward it."""
    if len(cell) != CELL_SIZE:
        raise ValueError("cell has the wrong size")


def encode_cell(payload: bytes, mac_key: bytes) -> bytes:
    """Pad ``payload`` into a fixed-size cell with an end-to-end MAC."""
    _check_capacity(len(payload))
    body = _LEN.pack(len(payload)) + payload.ljust(CELL_PAYLOAD, b"\x00")
    return body + _mac(mac_key, body)


def decode_cell(cell: bytes, mac_key: bytes) -> bytes:
    """Verify the end-to-end MAC and strip the padding."""
    _check_size(cell)
    body, tag = cell[:-_MAC_LEN], cell[-_MAC_LEN:]
    if not hmac.compare_digest(tag, _mac(mac_key, body)):
        raise ValueError("end-to-end cell MAC invalid")
    (length,) = _LEN.unpack(body[:_LEN.size])
    if length > CELL_PAYLOAD:
        raise ValueError("cell declares an impossible payload length")
    return body[_LEN.size:_LEN.size + length]


#: Keystream blocks one layer takes: a cell's worth, from block 1.
_CELL_BLOCKS = (CELL_SIZE + 63) // 64
_LAYER_BYTES = 64 * _CELL_BLOCKS

#: An end-to-end record to seal inside the cell or open out of it: the
#: call's AEAD and the frame's nonce.
Record = Tuple[ChaCha20Poly1305, bytes]


def _xor_layers(cell: bytes, streams: bytes) -> bytes:
    """``cell`` XOR the first :data:`CELL_SIZE` bytes of every layer's
    keystream in ``streams``.  Layers are XOR streams, so adding and
    peeling are one operation and their order does not matter."""
    acc = int.from_bytes(cell, "little")
    for start in range(0, len(streams), _LAYER_BYTES):
        acc ^= int.from_bytes(streams[start:start + CELL_SIZE], "little")
    return acc.to_bytes(CELL_SIZE, "little")


def _draw(layer_keys: Sequence[bytes], direction: bytes, sequence: int,
          record: Optional[Record], record_body: int) -> bytes:
    """One kernel call for every layer — blocks 1… of each hop's key
    under the cell's nonce — and, when there is a record, its blocks
    0… for up to ``record_body`` bytes, drawn after the layers."""
    layers = len(layer_keys)
    keys, nonces = list(layer_keys), [_nonce(direction, sequence)] * layers
    counts, starts = [_CELL_BLOCKS] * layers, [1] * layers
    if record is not None:
        aead, record_nonce = record
        key, nonce, blocks = aead.keystream_request(record_nonce,
                                                    record_body)
        keys.append(key)
        nonces.append(nonce)
        counts.append(blocks)
        starts.append(0)
    return chacha20._keystream_blocks(keys, nonces, counts, starts)


def _wrap(layer_keys: Sequence[bytes], direction: bytes, sequence: int,
          payload: bytes, mac_key: bytes, record: Optional[Record]) -> bytes:
    """Seal ``payload`` as ``record`` when there is one, encode the
    cell and add every layer: one kernel call.  A payload the cell
    cannot hold is refused before the call."""
    _check_capacity(len(payload) + (0 if record is None
                                    else ChaCha20Poly1305.TAG_LEN))
    stream = _draw(layer_keys, direction, sequence, record, len(payload))
    split = _LAYER_BYTES * len(layer_keys)
    if record is not None:
        payload = seal_record(stream[split:], payload)
    return _xor_layers(encode_cell(payload, mac_key), stream[:split])


def _unwrap(layer_keys: Sequence[bytes], direction: bytes, sequence: int,
            cell: bytes, mac_key: bytes, record: Optional[Record]) -> bytes:
    """Peel every layer, verify the cell and, when there is a record,
    open it: one kernel call, which covers the longest record a cell
    holds since its length is inside the cell.  The checks run in
    order — cell size (before the call), cell MAC, record tag — and
    the record is decrypted only once all pass."""
    _check_size(cell)
    stream = _draw(layer_keys, direction, sequence, record,
                   CELL_PAYLOAD - ChaCha20Poly1305.TAG_LEN)
    split = _LAYER_BYTES * len(layer_keys)
    payload = decode_cell(_xor_layers(cell, stream[:split]), mac_key)
    if record is None:
        return payload
    return open_record(stream[split:], payload)


def wrap_onion(circuit: OnionCircuitKeys, payload: bytes, sequence: int,
               record: Optional[Record] = None) -> bytes:
    """Client → exit: encode a cell and apply all forward layers (the
    first mix peels the outermost one).  With ``record`` the payload is
    first sealed as that end-to-end record, in the same kernel call."""
    return _wrap([hop.forward for hop in circuit.hops], b"fwd\x00",
                 sequence, payload, circuit.hops[-1].forward_mac, record)


def unwrap_layer(hop: HopKeys, cell: bytes, sequence: int,
                 forward: bool = True) -> bytes:
    """A mix peels (forward) or adds (backward) its single layer.

    ChaCha20 is an XOR stream, so peeling and adding are the same
    operation; the direction selects the key and nonce tag.
    """
    _check_size(cell)
    if forward:
        key, direction = hop.forward, b"fwd\x00"
    else:
        key, direction = hop.backward, b"bwd\x00"
    return _xor_layers(cell, chacha20._keystream_blocks(
        [key], [_nonce(direction, sequence)], [_CELL_BLOCKS], 1))


def unwrap_onion(circuit: OnionCircuitKeys, cell: bytes,
                 sequence: int) -> bytes:
    """Peel every forward layer and verify the cell (exit-side view,
    used in tests to check the full path)."""
    return _unwrap([hop.forward for hop in circuit.hops], b"fwd\x00",
                   sequence, cell, circuit.hops[-1].forward_mac, None)


def wrap_backward(circuit: OnionCircuitKeys, payload: bytes,
                  sequence: int) -> bytes:
    """Exit → client: every mix on the path adds its backward layer."""
    return _wrap([hop.backward for hop in circuit.hops], b"bwd\x00",
                 sequence, payload, circuit.hops[-1].backward_mac, None)


def unwrap_backward(circuit: OnionCircuitKeys, cell: bytes, sequence: int,
                    record: Optional[Record] = None) -> bytes:
    """Client removes all backward layers and verifies the cell; with
    ``record`` it then opens that end-to-end record, in the same kernel
    call."""
    return _unwrap([hop.backward for hop in circuit.hops], b"bwd\x00",
                   sequence, cell, circuit.hops[-1].backward_mac, record)
