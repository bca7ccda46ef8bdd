"""HKDF-SHA256 key derivation (RFC 5869) and Herd key schedules.

After an X25519 exchange, both DTLS links (hop-by-hop, §3.2) and circuit
hops (layered, §3.2) derive directional symmetric keys from the shared
secret.  This module provides the extract-and-expand KDF plus the
specific key schedules used elsewhere in the package.
"""

from __future__ import annotations

import hmac
from typing import Dict

_HASH_LEN = 32


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract: PRK = HMAC-SHA256(salt, IKM)."""
    if not salt:
        salt = b"\x00" * _HASH_LEN
    return hmac.digest(salt, ikm, "sha256")


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: derive ``length`` bytes of output keying material."""
    if length > 255 * _HASH_LEN:
        raise ValueError("HKDF-Expand output too long")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        okm += block
        counter += 1
    return okm[:length]


def hkdf_sha256(ikm: bytes, salt: bytes = b"", info: bytes = b"",
                length: int = 32) -> bytes:
    """One-shot HKDF-SHA256 (extract then expand)."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)


#: Labels for the directional keys of a DTLS-like link.
LINK_KEY_LABELS = ("client_write", "server_write")

#: Labels for the keys a circuit hop derives: forward/backward stream
#: keys plus forward/backward integrity keys.
CIRCUIT_KEY_LABELS = ("forward", "backward", "forward_mac", "backward_mac")


def derive_keys(shared_secret: bytes, labels, context: bytes = b"",
                length: int = 32) -> Dict[str, bytes]:
    """Derive one key per label from a DH shared secret.

    Returns a dict mapping each label to ``length`` bytes of independent
    keying material.  ``context`` binds the derivation to a transcript
    (e.g., both public keys of the handshake).
    """
    prk = hkdf_extract(b"herd-v1", shared_secret)
    return {
        label: hkdf_expand(prk, context + b"|" + label.encode("ascii"),
                           length)
        for label in labels
    }
