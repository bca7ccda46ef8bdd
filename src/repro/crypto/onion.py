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

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import List, Sequence

from repro.crypto.chacha20 import chacha20_keystream_many, xor_bytes
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
    return hmac.new(key, data, hashlib.sha256).digest()[:_MAC_LEN]


def encode_cell(payload: bytes, mac_key: bytes) -> bytes:
    """Pad ``payload`` into a fixed-size cell with an end-to-end MAC."""
    if len(payload) > CELL_PAYLOAD:
        raise ValueError(
            f"payload ({len(payload)} bytes) exceeds cell capacity "
            f"({CELL_PAYLOAD})")
    body = _LEN.pack(len(payload)) + payload.ljust(CELL_PAYLOAD, b"\x00")
    return body + _mac(mac_key, body)


def decode_cell(cell: bytes, mac_key: bytes) -> bytes:
    """Verify the end-to-end MAC and strip the padding."""
    if len(cell) != CELL_SIZE:
        raise ValueError("cell has the wrong size")
    body, tag = cell[:-_MAC_LEN], cell[-_MAC_LEN:]
    if not hmac.compare_digest(tag, _mac(mac_key, body)):
        raise ValueError("end-to-end cell MAC invalid")
    (length,) = _LEN.unpack(body[:_LEN.size])
    if length > CELL_PAYLOAD:
        raise ValueError("cell declares an impossible payload length")
    return body[_LEN.size:_LEN.size + length]


def _apply_layers(keys: Sequence[bytes], direction: bytes,
                  sequence: int, cell: bytes) -> bytes:
    """Add (or, equally, peel) the stream-cipher layer of every key at
    once.  Layers are XOR streams, so their order does not matter and
    all hops' keystreams come from one kernel call.  Every layer call
    passes here, so this is where a cell of any other size stops: a
    relay must not spend cipher work on it, let alone forward it."""
    if len(cell) != CELL_SIZE:
        raise ValueError("cell has the wrong size")
    streams = chacha20_keystream_many(
        keys, [_nonce(direction, sequence)] * len(keys),
        (len(cell) + 63) // 64, counter=1)
    return xor_bytes(cell, *[stream[:len(cell)] for stream in streams])


def wrap_onion(circuit: OnionCircuitKeys, payload: bytes,
               sequence: int) -> bytes:
    """Client → exit: encode a cell and apply all forward layers (the
    first mix peels the outermost one)."""
    cell = encode_cell(payload, circuit.hops[-1].forward_mac)
    return _apply_layers([hop.forward for hop in circuit.hops],
                         b"fwd\x00", sequence, cell)


def unwrap_layer(hop: HopKeys, cell: bytes, sequence: int,
                 forward: bool = True) -> bytes:
    """A mix peels (forward) or adds (backward) its single layer.

    ChaCha20 is an XOR stream, so peeling and adding are the same
    operation; the direction selects the key and nonce tag.
    """
    if forward:
        return _apply_layers([hop.forward], b"fwd\x00", sequence, cell)
    return _apply_layers([hop.backward], b"bwd\x00", sequence, cell)


def unwrap_onion(circuit: OnionCircuitKeys, cell: bytes,
                 sequence: int) -> bytes:
    """Peel every forward layer and verify the cell (exit-side view,
    used in tests to check the full path)."""
    cell = _apply_layers([hop.forward for hop in circuit.hops],
                         b"fwd\x00", sequence, cell)
    return decode_cell(cell, circuit.hops[-1].forward_mac)


def wrap_backward(circuit: OnionCircuitKeys, payload: bytes,
                  sequence: int) -> bytes:
    """Exit → client: every mix on the path adds its backward layer."""
    cell = encode_cell(payload, circuit.hops[-1].backward_mac)
    return _apply_layers([hop.backward for hop in circuit.hops],
                         b"bwd\x00", sequence, cell)


def unwrap_backward(circuit: OnionCircuitKeys, cell: bytes,
                    sequence: int) -> bytes:
    """Client removes all backward layers and verifies the cell."""
    cell = _apply_layers([hop.backward for hop in circuit.hops],
                         b"bwd\x00", sequence, cell)
    return decode_cell(cell, circuit.hops[-1].backward_mac)
