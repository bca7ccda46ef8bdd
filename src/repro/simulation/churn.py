"""Churn, failures, and failover (§3.1, §3.5).

Two concerns:

* **Failover** — "In the case of a mix or superpeer failure, a client
  contacts another mix in the same zone and re-joins."
  :func:`fail_mix` / :func:`fail_superpeer` break a live testbed; the
  re-join itself is a :class:`~repro.core.retry.LoopRetry` of
  :func:`~repro.core.join.join_zone` on the run's event loop.

* **Availability** — Herd assumes clients stay online "modulo power or
  network outages"; the paper cites that "half of Skype users are
  available more than 80% of the time".  :class:`AvailabilityModel`
  synthesizes per-user on/off processes matching that statistic, used
  to study how offline periods would expose users to long-term
  intersection attacks if Herd did *not* keep them connected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.simulation.testbed import HerdTestbed


def fail_mix(bed: HerdTestbed, mix_id: str,
             prune_directory: bool = True) -> List[str]:
    """Take a mix down: remove it from the zone and the deployment.
    Returns the ids of the clients that were attached to it and now
    need to re-join.

    A double failure (or a mix the testbed never had) raises a clear
    ``KeyError``; a mix the directory already pruned is simply skipped
    in the zone removal.  With ``prune_directory=False`` the crash is
    *unclean*: the directory keeps listing the dead mix (and keeps
    redirecting joins to it) until something calls
    :meth:`~repro.core.zone.TrustZone.remove_mix` — the detection-delay
    window the fault injector uses to exercise join retries.
    """
    mix = bed.mixes.pop(mix_id, None)
    if mix is None:
        raise KeyError(f"no such mix {mix_id}")
    if prune_directory and mix_id in mix.zone.mix_ids:
        mix.zone.remove_mix(mix_id)
    orphans = [cid for cid, client in bed.clients.items()
               if client.mix_id == mix_id]
    for cid in orphans:
        bed.clients[cid].leave()
    return orphans


def recover_mix(bed: HerdTestbed, mix) -> None:
    """Bring a failed mix back with the same identity but no client
    sessions (a restart keeps keys and enrollment; clients must re-run
    the §3.5 join).  ``mix`` is the object :func:`fail_mix` removed."""
    if mix.mix_id in bed.mixes:
        raise ValueError(f"mix {mix.mix_id} is already running")
    mix.reset_client_state()
    bed.mixes[mix.mix_id] = mix
    if mix.mix_id not in mix.zone.mix_ids:
        mix.zone.add_mix(mix.mix_id)


def fail_superpeer(bed: HerdTestbed, sp_id: str) -> List[str]:
    """Take an SP down.  Always returns the (possibly empty) sorted
    list of clients attached through it — an SP with zero attached
    clients yields ``[]``, never ``None``.

    Affected clients shed the attachments the dead SP hosted and stay
    joined on their surviving channels — the state the mid-call
    failover path (§3.6.4) starts from.
    """
    sp = bed.superpeers.pop(sp_id, None)
    if sp is None:
        raise KeyError(f"no such superpeer {sp_id}")
    dead_channels = set(sp.channel_clients)
    affected: Set[str] = set()
    for members in sp.channel_clients.values():
        affected.update(members)
    for cid in sorted(affected):
        client = bed.clients.get(cid)
        if client is None:
            continue
        client.detach_channels(dead_channels)
    return sorted(affected)


def recover_superpeer(bed: HerdTestbed, sp) -> None:
    """Bring a failed SP back hosting the same channels but with empty
    membership; clients re-attach by re-joining.  ``sp`` is the object
    :func:`fail_superpeer` removed."""
    if sp.sp_id in bed.superpeers:
        raise ValueError(f"superpeer {sp.sp_id} is already running")
    sp.reset_members()
    bed.superpeers[sp.sp_id] = sp


@dataclass
class AvailabilityModel:
    """Per-user alternating on/off availability processes.

    Session and gap lengths are exponential; per-user mean availability
    is drawn so that the population matches a target quantile (default:
    half the users above 80%, the Skype measurement the paper cites).
    """

    n_users: int
    median_availability: float = 0.80
    mean_session_s: float = 8 * 3600.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.median_availability < 1.0:
            raise ValueError("median availability must be in (0, 1)")
        if self.n_users < 1:
            raise ValueError("need at least one user")
        rng = random.Random(self.seed)
        # Beta-distributed per-user availability centred on the median.
        alpha = 4.0 * self.median_availability
        beta = 4.0 * (1.0 - self.median_availability)
        self.availability = [
            min(0.999, max(0.001, rng.betavariate(alpha, beta)))
            for _ in range(self.n_users)
        ]
        self._rng = rng

    def fraction_above(self, threshold: float) -> float:
        return sum(1 for a in self.availability
                   if a > threshold) / self.n_users

    def online_periods(self, user: int, horizon_s: float
                       ) -> List[Tuple[float, float]]:
        """Alternating online intervals for one user over a horizon."""
        avail = self.availability[user]
        mean_gap = self.mean_session_s * (1.0 - avail) / avail
        periods: List[Tuple[float, float]] = []
        t = 0.0
        online = self._rng.random() < avail
        while t < horizon_s:
            if online:
                length = self._rng.expovariate(1.0 / self.mean_session_s)
                periods.append((t, min(t + length, horizon_s)))
            else:
                length = self._rng.expovariate(1.0 / max(mean_gap, 1.0))
            t += length
            online = not online
        return periods

    def online_at(self, periods: List[Tuple[float, float]],
                  t: float) -> bool:
        return any(a <= t < b for a, b in periods)


def exposure_rounds(model: AvailabilityModel, target: int,
                    event_times: Sequence[float], horizon_s: float
                    ) -> List[Set[int]]:
    """What a long-term intersection adversary gets if user presence
    were observable (i.e. without Herd's always-on connections): the
    set of users online at each of the target's communication events.

    With Herd, clients stay connected regardless of calls, so every
    round would contain (nearly) the whole population instead.
    """
    periods = {u: model.online_periods(u, horizon_s)
               for u in range(model.n_users)}
    rounds: List[Set[int]] = []
    for t in event_times:
        online = {u for u in range(model.n_users)
                  if model.online_at(periods[u], t)}
        online.add(target)  # the target was communicating, so online
        rounds.append(online)
    return rounds
