"""PKI: root of trust, certificates, and signed descriptors.

Herd §3 assumes "a PKI that provides a root of trust to authenticate
legitimate mixes and zone directories", with the root certificate
embedded in the client software.  Clients joining a zone "obtain a
signed certificate from a zone directory that contains a client ID and
the zone's signature" (§3.3), and participants publish *descriptors*
containing their public keys ``l`` and ``s`` in the zone directory
(§3.2).

This module implements those three artefacts:

* :class:`RootOfTrust` — signs zone-directory certificates.
* :class:`Certificate` — a signed binding of (subject id, role, zone,
  public keys); chains up to the root.
* :class:`Descriptor` — the published record of a participant's public
  keys, signed with the participant's identity key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.crypto.ed25519 import SigningKey, VerifyKey
from repro.crypto.keys import IdentityKeyPair


def _encode_field(tag: str, value: bytes) -> bytes:
    tag_b = tag.encode("ascii")
    return (len(tag_b).to_bytes(2, "big") + tag_b
            + len(value).to_bytes(4, "big") + value)


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject's identity to a zone and role.

    ``role`` is one of ``"zone-directory"``, ``"mix"``, ``"superpeer"``,
    ``"client"``.  The certificate is signed by the issuer (the root for
    zone directories; the zone directory for everything else).
    """

    subject_id: str
    role: str
    zone_id: str
    identity_public: bytes
    short_term_public: bytes
    issuer_public: bytes
    signature: bytes

    ROLES = ("zone-directory", "mix", "superpeer", "client")

    def to_signing_bytes(self) -> bytes:
        """The canonical byte string covered by the signature."""
        return b"herd-cert-v1" + b"".join([
            _encode_field("subject", self.subject_id.encode("utf-8")),
            _encode_field("role", self.role.encode("ascii")),
            _encode_field("zone", self.zone_id.encode("utf-8")),
            _encode_field("l", self.identity_public),
            _encode_field("s", self.short_term_public),
            _encode_field("issuer", self.issuer_public),
        ])

    def verify(self, issuer_key: Optional[VerifyKey] = None) -> bool:
        """Check the signature (against ``issuer_key`` if provided, else
        against the embedded issuer public key)."""
        key = issuer_key or VerifyKey(self.issuer_public)
        if issuer_key is not None and \
                issuer_key.public_bytes != self.issuer_public:
            return False
        return key.verify(self.to_signing_bytes(), self.signature)


def issue_certificate(issuer: SigningKey, subject_id: str, role: str,
                      zone_id: str, identity_public: bytes,
                      short_term_public: bytes) -> Certificate:
    """Create and sign a certificate for a subject."""
    if role not in Certificate.ROLES:
        raise ValueError(f"unknown role {role!r}")
    unsigned = Certificate(
        subject_id=subject_id,
        role=role,
        zone_id=zone_id,
        identity_public=identity_public,
        short_term_public=short_term_public,
        issuer_public=issuer.verify_key.public_bytes,
        signature=b"\x00" * 64,
    )
    return replace(
        unsigned, signature=issuer.sign(unsigned.to_signing_bytes()))


@dataclass(frozen=True)
class Descriptor:
    """A participant's published descriptor: public keys ``l`` and ``s``
    plus contact information, signed with the identity key ``l``."""

    subject_id: str
    zone_id: str
    identity_public: bytes
    short_term_public: bytes
    address: str
    signature: bytes

    def to_signing_bytes(self) -> bytes:
        return b"herd-desc-v1" + b"".join([
            _encode_field("subject", self.subject_id.encode("utf-8")),
            _encode_field("zone", self.zone_id.encode("utf-8")),
            _encode_field("l", self.identity_public),
            _encode_field("s", self.short_term_public),
            _encode_field("addr", self.address.encode("utf-8")),
        ])

    def verify(self) -> bool:
        return VerifyKey(self.identity_public).verify(
            self.to_signing_bytes(), self.signature)


def make_descriptor(identity: IdentityKeyPair, subject_id: str,
                    zone_id: str, short_term_public: bytes,
                    address: str) -> Descriptor:
    """Build and self-sign a descriptor for a participant."""
    unsigned = Descriptor(
        subject_id=subject_id,
        zone_id=zone_id,
        identity_public=identity.public_bytes,
        short_term_public=short_term_public,
        address=address,
        signature=b"\x00" * 64,
    )
    return replace(
        unsigned, signature=identity.sign(unsigned.to_signing_bytes()))


class RootOfTrust:
    """The root key embedded in the Herd client software.

    The root signs one certificate per zone directory; everything else
    chains through the directories.  :meth:`verify_chain` validates a
    leaf certificate against its issuing directory certificate and the
    root key.
    """

    def __init__(self, rng=None):
        self._key = SigningKey.generate(rng)
        self._zone_certs = {}

    @property
    def public_key(self) -> VerifyKey:
        return self._key.verify_key

    def certify_zone_directory(self, zone_id: str, identity_public: bytes,
                               short_term_public: bytes) -> Certificate:
        cert = issue_certificate(
            self._key, subject_id=f"directory:{zone_id}",
            role="zone-directory", zone_id=zone_id,
            identity_public=identity_public,
            short_term_public=short_term_public)
        self._zone_certs[zone_id] = cert
        return cert

    def zone_certificate(self, zone_id: str) -> Optional[Certificate]:
        return self._zone_certs.get(zone_id)

    def verify_chain(self, leaf: Certificate,
                     directory_cert: Certificate) -> bool:
        """Validate leaf → directory → root."""
        if directory_cert.role != "zone-directory":
            return False
        if leaf.zone_id != directory_cert.zone_id:
            return False
        if not directory_cert.verify(self.public_key):
            return False
        return leaf.verify(VerifyKey(directory_cert.identity_public))
