"""Zone directories (§3.3–3.5).

Each zone runs a directory server that

* issues client certificates on join ("a client obtains a signed
  certificate from a zone directory that contains a client ID and the
  zone's signature", §3.3),
* stores participant *descriptors* ("descriptors containing public
  keys l and s of the zone participants are published in their
  directory, where they can be queried", §3.2),
* stores *rendezvous records* ("each zone directory server stores the
  rendezvous mixes of all the clients attached to that zone (client's
  public key and rendezvous mix IP address)", §3.3),
* orchestrates link-rate epochs from mixes' utilization reports
  (§3.4.2: "mixes periodically report statistics about link utilization
  to their directory, which then signals them to ramp up/down").
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.zone import TrustZone
from repro.crypto.keys import IdentityKeyPair, ShortTermKeyPair
from repro.crypto.pki import (
    Certificate,
    Descriptor,
    RootOfTrust,
    issue_certificate,
)


class DirectoryStalledError(RuntimeError):
    """The zone directory is not answering (a ``DIRECTORY_STALL``
    fault window).  A ``RuntimeError`` subclass so every existing
    join-retry path — :func:`~repro.core.join.join_with_retries` and
    the fault injector's :class:`~repro.core.retry.LoopRetry` re-joins
    — backs off and retries instead of aborting."""


@dataclass(frozen=True)
class RendezvousRecord:
    """A client's published rendezvous point: its public identity key
    and the rendezvous mix's address within the zone."""

    client_public: bytes
    rendezvous_mix: str


class ZoneDirectory:
    """The directory server of one trust zone."""

    def __init__(self, zone: TrustZone, root: RootOfTrust,
                 rng: Optional[random.Random] = None):
        self.zone = zone
        self.rng = rng or random.Random(0)
        self.identity = IdentityKeyPair.generate(self.rng)
        self.short_term = ShortTermKeyPair.generate(self.rng)
        self.certificate = root.certify_zone_directory(
            zone.zone_id, self.identity.public_bytes,
            self.short_term.public_bytes)
        self._descriptors: Dict[str, Descriptor] = {}
        self._rendezvous: Dict[bytes, RendezvousRecord] = {}
        self._issued: Dict[str, Certificate] = {}
        self._utilization_reports: Dict[str, float] = {}
        #: When True, the directory refuses redirection requests
        #: (see :class:`DirectoryStalledError`); set/cleared by the
        #: fault injector's ``DIRECTORY_STALL`` window.
        self.stalled = False
        #: Numeric client ids, unique zone-wide (the key of mix
        #: channel tables and of ``LiveZone``'s client index).
        self._numeric_ids = itertools.count(0)

    # -- certification -----------------------------------------------------

    def allocate_numeric_id(self) -> int:
        """The next numeric id for a client joining this zone."""
        return next(self._numeric_ids)

    def enroll(self, subject_id: str, role: str, identity_public: bytes,
               short_term_public: bytes) -> Certificate:
        """Issue a certificate binding a participant to this zone."""
        if subject_id in self._issued:
            raise ValueError(f"{subject_id} already enrolled")
        cert = issue_certificate(
            self.identity.signing_key, subject_id, role,
            self.zone.zone_id, identity_public, short_term_public)
        self._issued[subject_id] = cert
        return cert

    def certificate_of(self, subject_id: str) -> Optional[Certificate]:
        return self._issued.get(subject_id)

    # -- descriptors -------------------------------------------------------

    def publish_descriptor(self, descriptor: Descriptor) -> None:
        if descriptor.zone_id != self.zone.zone_id:
            raise ValueError("descriptor belongs to a different zone")
        if not descriptor.verify():
            raise ValueError("descriptor signature invalid")
        self._descriptors[descriptor.subject_id] = descriptor

    def lookup_descriptor(self, subject_id: str) -> Optional[Descriptor]:
        return self._descriptors.get(subject_id)

    # -- mix selection -----------------------------------------------------

    def pick_mix(self, exclude: Optional[str] = None) -> str:
        """A uniformly random mix of the zone (used for join redirection
        and rendezvous selection — invariant I5 requires uniformity)."""
        if self.stalled:
            raise DirectoryStalledError(
                f"directory of zone {self.zone.zone_id} is not "
                "responding")
        candidates = [m for m in self.zone.mix_ids if m != exclude]
        if not candidates:
            raise RuntimeError(f"zone {self.zone.zone_id} has no "
                               "(other) mixes")
        return self.rng.choice(candidates)

    # -- rendezvous records -------------------------------------------------

    def publish_rendezvous(self, client_public: bytes,
                           rendezvous_mix: str) -> None:
        if rendezvous_mix not in self.zone.mix_ids:
            raise ValueError(f"{rendezvous_mix} is not a mix of zone "
                             f"{self.zone.zone_id}")
        self._rendezvous[client_public] = RendezvousRecord(
            client_public, rendezvous_mix)

    def lookup_rendezvous(self, client_public: bytes
                          ) -> Optional[RendezvousRecord]:
        return self._rendezvous.get(client_public)

    # -- rate orchestration ---------------------------------------------------

    def report_utilization(self, mix_id: str, active_calls: float) -> None:
        """A mix's periodic utilization report (aggregate call count on
        its link group)."""
        if mix_id not in self.zone.mix_ids:
            raise ValueError(f"unknown mix {mix_id}")
        self._utilization_reports[mix_id] = active_calls

    def run_epoch(self, epoch: int) -> Dict[str, int]:
        """Close the epoch: feed aggregated reports to the zone's rate
        controllers and return the rates every link group must apply
        *simultaneously* (§3.4.2)."""
        total = sum(self._utilization_reports.values())
        self._utilization_reports.clear()
        return {
            "sp_links": self.zone.sp_rate.on_epoch(epoch, total),
            "intra_links": self.zone.intra_rate.on_epoch(epoch, total),
        }

    def run_interzone_epoch(self, epoch: int, other: "ZoneDirectory",
                            pair_calls: float) -> int:
        """Coordinate a rate change with another zone's directory for
        the links between the two zones (§3.4.3: "rate changes on links
        crossing zones require coordination between the directories of
        the two zones")."""
        mine = self.zone.interzone_controller(other.zone.zone_id)
        theirs = other.zone.interzone_controller(self.zone.zone_id)
        rate_a = mine.on_epoch(epoch, pair_calls)
        rate_b = theirs.on_epoch(epoch, pair_calls)
        # Both controllers see identical inputs, but take the max for
        # robustness: the pair's links must share one rate.
        rate = max(rate_a, rate_b)
        mine.rate = theirs.rate = rate
        return rate
