"""Cryptographic substrate for the Herd reproduction.

The paper's prototype relies on OpenSSL and curve25519 for TLS and
public-key cryptography.  This package provides a from-scratch,
pure-Python equivalent that interoperates only with itself:

* :mod:`repro.crypto.x25519` — RFC 7748 Curve25519 Diffie-Hellman.
* :mod:`repro.crypto.ed25519` — RFC 8032 Ed25519 signatures.
* :mod:`repro.crypto.chacha20` — RFC 8439 ChaCha20 (many independent
  streams per call, through one numpy block kernel) and the
  ChaCha20-Poly1305 AEAD construction.
* :mod:`repro.crypto.kdf` — HKDF-SHA256 key derivation.
* :mod:`repro.crypto.keys` — long-term identity and short-term circuit
  key pairs, as described in Herd §3.2.
* :mod:`repro.crypto.pki` — root of trust, zone certificates, and signed
  descriptors (Herd §3.3, §3.5).
* :mod:`repro.crypto.dtls` — a DTLS-like authenticated datagram channel
  with perfect forward secrecy (hop-by-hop encryption).
* :mod:`repro.crypto.onion` — layered (onion) encryption for circuits
  (bitwise unlinkability, invariant I1).

None of this code is intended for real-world security use; it exists so
that the reproduced system actually exercises the cryptographic code
paths the paper describes (key negotiation, layer peeling, predictable
chaff ciphertext for XOR decoding at the mix).
"""

from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey, x25519
from repro.crypto.ed25519 import SigningKey, VerifyKey
from repro.crypto.chacha20 import (
    chacha20_encrypt,
    chacha20_encrypt_many,
    chacha20_keystream,
    chacha20_keystream_many,
    ChaCha20Poly1305,
)
from repro.crypto.kdf import hkdf_sha256, derive_keys
from repro.crypto.keys import IdentityKeyPair, ShortTermKeyPair, SessionKey
from repro.crypto.pki import Certificate, RootOfTrust, Descriptor
from repro.crypto.dtls import DTLSLink, HandshakeError
from repro.crypto.onion import OnionCircuitKeys, wrap_onion, unwrap_layer

__all__ = [
    "X25519PrivateKey",
    "X25519PublicKey",
    "x25519",
    "SigningKey",
    "VerifyKey",
    "chacha20_encrypt",
    "chacha20_encrypt_many",
    "chacha20_keystream",
    "chacha20_keystream_many",
    "ChaCha20Poly1305",
    "hkdf_sha256",
    "derive_keys",
    "IdentityKeyPair",
    "ShortTermKeyPair",
    "SessionKey",
    "Certificate",
    "RootOfTrust",
    "Descriptor",
    "DTLSLink",
    "HandshakeError",
    "OnionCircuitKeys",
    "wrap_onion",
    "unwrap_layer",
]
