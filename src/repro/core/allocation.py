"""Channel allocation (§3.6.3).

Two allocation problems arise in the superpeer architecture:

1. **Static client→channel assignment.**  "The mix allocates a new
   client to k distinct channels.  We use a greedy algorithm that picks
   k distinct channels randomly from the least occupied channels."
   Assignments are static: "dynamic routing inevitably leaks
   information related to call activity [...] Therefore, Herd uses
   static allocations of clients to channels."

2. **Dynamic call→channel allocation.**  "When an outgoing/incoming
   call starts, the mix must dynamically allocate to the call an
   available channel (if any) among the k channels to which the
   caller/callee attaches.  This is an instance of the online bipartite
   matching problem.  A simple, optimal algorithm exists [KVV'90].  It
   initially ranks all channels randomly, and then allocates the
   available channel with the highest rank in each step."

Both are implemented here: :func:`assign_clients_to_channels` and
:class:`RankingMatcher` (with a first-fit variant for ablations).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple


@dataclass
class ChannelAssignment:
    """The static map of clients to channels at one mix.

    ``channels_of[client]`` is the tuple of k channel ids the client
    attaches to; ``clients_of[channel]`` is the reverse index.
    """

    n_channels: int
    channels_of: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    clients_of: Dict[int, List[int]] = field(default_factory=dict)

    def __post_init__(self):
        for ch in range(self.n_channels):
            self.clients_of.setdefault(ch, [])

    def add_client(self, client: int, channels: Sequence[int]) -> None:
        if client in self.channels_of:
            raise ValueError(f"client {client} already assigned")
        channels = tuple(channels)
        if len(set(channels)) != len(channels):
            raise ValueError("channels must be distinct")
        for ch in channels:
            if not 0 <= ch < self.n_channels:
                raise ValueError(f"channel {ch} out of range")
        self.channels_of[client] = channels
        for ch in channels:
            self.clients_of[ch].append(client)

    def occupancy(self) -> List[int]:
        """Clients attached per channel."""
        return [len(self.clients_of[ch]) for ch in range(self.n_channels)]

    @property
    def n_clients(self) -> int:
        return len(self.channels_of)


def assign_clients_to_channels(n_clients: int, n_channels: int, k: int,
                               rng: Optional[random.Random] = None
                               ) -> ChannelAssignment:
    """Greedy static assignment: each client gets ``k`` distinct
    channels picked randomly from the least-occupied channels.

    The paper's Fig. 3 toy example (k=2, N=6, C=4) has the ideal
    property that any C clients can call concurrently; this greedy rule
    approximates it at scale by keeping occupancy balanced.
    """
    rng = rng or random.Random(0)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n_channels:
        raise ValueError("k cannot exceed the number of channels")
    assignment = ChannelAssignment(n_channels)
    occupancy = [0] * n_channels
    # buckets[level]: the channels with that occupancy, ascending;
    # ``low`` is the lowest level any channel is at.
    buckets: List[List[int]] = [list(range(n_channels))]
    low = 0
    for client in range(n_clients):
        chosen: List[int] = []
        # Pick k channels one at a time, each uniformly among the
        # currently least-occupied channels not yet chosen.
        for _ in range(k):
            level = low
            while True:
                bucket = buckets[level]
                taken = [ch for ch in chosen if occupancy[ch] == level]
                if len(taken) < len(bucket):
                    break
                level += 1
            least = [ch for ch in bucket if ch not in taken] \
                if taken else bucket
            ch = rng.choice(least)
            del bucket[bisect_left(bucket, ch)]
            if level + 1 == len(buckets):
                buckets.append([])
            insort(buckets[level + 1], ch)
            occupancy[ch] += 1
            chosen.append(ch)
        while not buckets[low]:
            low += 1
        assignment.add_client(client, chosen)
    return assignment


class RankingMatcher:
    """Online call→channel matching with the KVV RANKING algorithm.

    Channels receive a random permanent rank at construction; each
    arriving call is matched to the *highest-ranked available* channel
    among the k channels its client attaches to.  ``release`` frees a
    channel when the call ends (the classic algorithm is for one-shot
    matching; calls ending re-open channels, which preserves RANKING's
    greedy step as the paper describes).
    """

    def __init__(self, assignment: ChannelAssignment,
                 rng: Optional[random.Random] = None):
        rng = rng or random.Random(0)
        self.assignment = assignment
        ranks = list(range(assignment.n_channels))
        rng.shuffle(ranks)
        self._rank = {ch: rank for ch, rank in enumerate(ranks)}
        self._busy: Dict[int, int] = {}  # channel -> client
        self._active: Dict[int, int] = {}  # client -> channel
        self.calls_attempted = 0
        self.calls_blocked = 0

    def rank(self, channel: int) -> int:
        return self._rank[channel]

    def is_busy(self, channel: int) -> bool:
        return channel in self._busy

    def active_channel(self, client: int) -> Optional[int]:
        return self._active.get(client)

    def try_allocate(self, client: int,
                     exclude: Collection[int] = ()) -> Optional[int]:
        """Allocate a channel for a starting call; None if blocked.

        A client already on a call is blocked (one call at a time per
        client in our model, matching the trace semantics).  Channels
        in ``exclude`` are never allocated — the call manager passes
        the channels of failed or blacklisted SPs (§3.6.4).
        """
        self.calls_attempted += 1
        if client in self._active:
            self.calls_blocked += 1
            return None
        channels = self.assignment.channels_of.get(client)
        if channels is None:
            raise KeyError(f"client {client} has no channel assignment")
        free = [ch for ch in channels
                if ch not in self._busy and ch not in exclude]
        if not free:
            self.calls_blocked += 1
            return None
        best = min(free, key=lambda ch: self._rank[ch])
        self._busy[best] = client
        self._active[client] = best
        return best

    def release(self, client: int) -> None:
        """End the client's call, freeing its channel."""
        channel = self._active.pop(client, None)
        if channel is not None:
            del self._busy[channel]

    @property
    def blocking_rate(self) -> float:
        if self.calls_attempted == 0:
            return 0.0
        return self.calls_blocked / self.calls_attempted

    @property
    def channels_in_use(self) -> int:
        return len(self._busy)


class FirstFitMatcher(RankingMatcher):
    """Ablation baseline: allocate the lowest-numbered free channel
    instead of the highest-ranked one."""

    def try_allocate(self, client: int,
                     exclude: Collection[int] = ()) -> Optional[int]:
        self.calls_attempted += 1
        if client in self._active:
            self.calls_blocked += 1
            return None
        channels = self.assignment.channels_of.get(client)
        if channels is None:
            raise KeyError(f"client {client} has no channel assignment")
        free = sorted(ch for ch in channels
                      if ch not in self._busy and ch not in exclude)
        if not free:
            self.calls_blocked += 1
            return None
        best = free[0]
        self._busy[best] = client
        self._active[client] = best
        return best
