"""The join protocol (§3.5).

"When a client wishes to join the system, it chooses a zone and is
redirected by that zone's directory to a mix within the zone.  The
client then establishes a symmetric key s with the mix [...] Finally,
the mix either adopts the client with a direct link, or redirects the
client to one or more of the superpeers connected to the mix."

:func:`join_zone` drives the whole exchange against live directory,
mix, and SP objects, and returns a :class:`JoinResult` describing where
the client ended up.
"""

from __future__ import annotations

import hmac
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.channel import CHANNEL_CAPACITY
from repro.core.client import HerdClient, derive_client_mix_key
from repro.core.directory import ZoneDirectory
from repro.core.mix import Mix
from repro.core.retry import (
    BackoffPolicy,
    VirtualClock,
    call_with_retries,
)
from repro.core.superpeer import SuperPeer


@dataclass
class JoinResult:
    """Outcome of a join: the adopting mix and any SP attachments."""

    mix_id: str
    direct: bool
    attachments: List[tuple] = field(default_factory=list)  # (sp, channel, slot)


def join_zone(client: HerdClient, directory: ZoneDirectory,
              mixes: Dict[str, Mix],
              superpeers: Optional[Dict[str, SuperPeer]] = None,
              channel_choice: Optional[Sequence[int]] = None,
              rng: Optional[random.Random] = None,
              exclude_mix: Optional[str] = None) -> JoinResult:
    """Run the §3.5 join protocol.

    Parameters
    ----------
    client:
        The joining client (its ``zone_id`` selects the zone).
    directory:
        The zone's directory (performs the mix redirection and issues
        the client certificate).
    mixes:
        Live mixes of the zone, keyed by id.
    superpeers:
        If provided and the adopting mix has channels configured, the
        client is redirected to SPs: it attaches to ``client.k``
        channels chosen by the mix (``channel_choice`` overrides the
        choice for tests).
    exclude_mix:
        A mix to avoid — used when re-joining after that mix failed
        (§3.5: "the client contacts another mix in the same zone").
    """
    rng = rng or random.Random(0)
    if client.zone_id != directory.zone.zone_id:
        raise ValueError("client is joining through the wrong directory")
    if client.joined:
        raise RuntimeError("client already joined")

    # 1. The directory redirects the client to a mix within the zone.
    mix_id = directory.pick_mix(exclude=exclude_mix)
    mix = mixes[mix_id]

    # 2. Client ↔ mix key establishment (symmetric key s).
    eph_pub, eph = client.begin_join()
    shared = mix.short_term.exchange(eph_pub)
    session_key = derive_client_mix_key(
        shared, eph_pub, mix.short_term.public_bytes)
    numeric_id = directory.allocate_numeric_id()
    mix.adopt_client(client.client_id, session_key)

    # 3. The directory certifies the client for this zone (re-joining
    # clients keep their existing certificate).
    certificate = directory.certificate_of(client.client_id)
    if certificate is None:
        certificate = directory.enroll(
            client.client_id, "client", client.identity.public_bytes,
            client.short_term.public_bytes)
    client.finish_join(eph, mix_id, mix.short_term.public_key,
                       numeric_id, certificate)
    if not hmac.compare_digest(client.session_key.key, session_key.key):
        _abandon(mix, client)
        raise RuntimeError("join key agreement mismatch")

    # 4. Adoption: direct link, or redirection to superpeers.
    if not superpeers or not mix.channels:
        return JoinResult(mix_id=mix_id, direct=True)

    if channel_choice is None:
        occupancy = {ch_id: ch.member_count()
                     for ch_id, ch in mix.channels.items()}
        channel_choice = []
        for _ in range(client.k):
            candidates = [c for c in occupancy if c not in channel_choice]
            min_occ = min(occupancy[c] for c in candidates)
            least = [c for c in candidates if occupancy[c] == min_occ]
            pick = rng.choice(least)
            channel_choice.append(pick)
            occupancy[pick] += 1
    try:
        hosts = _channel_hosts(mix, superpeers, channel_choice)
    except (KeyError, ValueError, RuntimeError):
        _abandon(mix, client)
        raise
    slots = mix.attach_client_to_channels(client.client_id,
                                          list(channel_choice),
                                          numeric_id)
    result = JoinResult(mix_id=mix_id, direct=False)
    for sp, (ch_id, slot) in zip(hosts, slots.items()):
        sp.add_client(ch_id, client.client_id)
        client.attach(sp.sp_id, ch_id, slot)
        result.attachments.append((sp.sp_id, ch_id, slot))
    return result


def _abandon(mix: Mix, client: HerdClient) -> None:
    """Undo the key establishment of a join that is being refused:
    neither side keeps a key the other does not share, and the client
    can join again."""
    del mix.client_keys[client.client_id]
    client.leave()


def _channel_hosts(mix: Mix, superpeers: Dict[str, SuperPeer],
                   channels: Sequence[int]) -> List[SuperPeer]:
    """The SP hosting each of the chosen ``channels``, once every one
    is known to take the client: no channel twice, each with a place
    free at the mix and hosted by an SP that will hand out the slot
    the mix does.  Raises otherwise (``KeyError`` for a channel the
    mix does not have), with nothing attached yet; only the chosen
    channels are looked at, not the zone's."""
    if len(set(channels)) != len(channels):
        raise ValueError("a channel was chosen twice")
    hosts = []
    for ch_id in channels:
        channel = mix.channels[ch_id]
        if channel.member_count() >= CHANNEL_CAPACITY:
            raise ValueError(f"channel is full ({CHANNEL_CAPACITY} "
                             "members)")
        # Should two SPs list a channel, the later one hosts it.
        sp = next((sp for sp in reversed(superpeers.values())
                   if ch_id in sp.channel_clients), None)
        if sp is None:
            raise ValueError(f"channel {ch_id} is not hosted by any SP")
        if len(sp.channel_clients[ch_id]) != channel.member_count():
            raise RuntimeError("mix and SP slot assignment diverged")
        hosts.append(sp)
    return hosts


@dataclass
class JoinRetryResult:
    """A join that (eventually) succeeded, and what it took."""

    result: JoinResult
    attempts: int
    backoff_s: float


def join_with_retries(client: HerdClient, directory: ZoneDirectory,
                      mixes: Dict[str, Mix],
                      superpeers: Optional[Dict[str, SuperPeer]] = None,
                      channel_choice: Optional[Sequence[int]] = None,
                      rng: Optional[random.Random] = None,
                      exclude_mix: Optional[str] = None,
                      policy: Optional[BackoffPolicy] = None,
                      clock: Optional[VirtualClock] = None
                      ) -> JoinRetryResult:
    """Run :func:`join_zone` with bounded exponential backoff (§3.5).

    After an unclean mix crash the directory may keep redirecting
    joins to the dead mix until it detects the failure; each such
    attempt fails with ``KeyError`` and is retried after a backoff
    accounted on the virtual ``clock``.  A partially completed join is
    rolled back with :meth:`~repro.core.client.HerdClient.leave` before
    the retry.  Raises :class:`~repro.core.retry.RetryError` when the
    policy's attempts are exhausted.
    """
    if client.joined:
        raise RuntimeError("client already joined")
    policy = policy or BackoffPolicy()
    clock = clock or VirtualClock()

    def attempt() -> JoinResult:
        try:
            return join_zone(client, directory, mixes,
                             superpeers=superpeers,
                             channel_choice=channel_choice, rng=rng,
                             exclude_mix=exclude_mix)
        except Exception:
            if client.joined:
                client.leave()
            raise

    outcome = call_with_retries(
        attempt, policy=policy, clock=clock, rng=rng,
        retry_on=(KeyError, RuntimeError, ValueError))
    return JoinRetryResult(result=outcome.value,
                           attempts=outcome.attempts,
                           backoff_s=outcome.backoff_s)
