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

Both are implemented here: :class:`OccupancyIndex` (the greedy rule,
which :func:`assign_clients_to_channels` and every mix's joins share)
and :class:`RankingMatcher` (with a first-fit variant for ablations).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)


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


class OccupancyIndex:
    """The §3.6.3 greedy rule, kept incrementally: channel ids bucketed
    by how many clients each holds.

    :meth:`pick` draws ``k`` distinct channels, each uniformly among
    the least occupied not yet drawn: the list it draws from is that
    level's bucket in ascending channel id, so a caller whose channels
    are numbered in the order they were opened (a :class:`Mix`) makes
    the draws a rescan of its channels in that order would.  A pick
    leaves the index as it is; :meth:`occupy` records a client that
    did attach.
    """

    def __init__(self, channels: Iterable[int] = ()):
        self._level: Dict[int, int] = {}
        # _buckets[level]: the channels at that occupancy, ascending;
        # ``_low`` is the lowest level any channel is at.
        self._buckets: List[List[int]] = [[]]
        self._low = 0
        for channel in channels:
            self.add_channel(channel)

    def add_channel(self, channel: int) -> None:
        """A new channel, with no clients yet."""
        if channel in self._level:
            raise ValueError(f"channel {channel} already indexed")
        self._level[channel] = 0
        insort(self._buckets[0], channel)
        self._low = 0

    def occupancy(self, channel: int) -> int:
        return self._level[channel]

    def occupy(self, channel: int) -> None:
        """One more client on ``channel``."""
        level = self._level[channel]
        bucket = self._buckets[level]
        del bucket[bisect_left(bucket, channel)]
        level += 1
        if level == len(self._buckets):
            self._buckets.append([])
        insort(self._buckets[level], channel)
        self._level[channel] = level
        while not self._buckets[self._low]:
            self._low += 1

    def pick(self, k: int, rng: random.Random) -> List[int]:
        """``k`` distinct channels, one ``rng.choice`` each."""
        if k > len(self._level):
            raise ValueError("k cannot exceed the number of channels")
        chosen: List[int] = []
        for _ in range(k):
            level = self._low
            while True:
                bucket = self._buckets[level]
                taken = [ch for ch in chosen if self._level[ch] == level]
                if len(taken) < len(bucket):
                    break
                level += 1
            least = [ch for ch in bucket if ch not in taken] \
                if taken else bucket
            chosen.append(rng.choice(least))
        return chosen


def assign_clients_to_channels(n_clients: int, n_channels: int, k: int,
                               rng: Optional[random.Random] = None
                               ) -> ChannelAssignment:
    """Greedy static assignment: each client gets ``k`` distinct
    channels picked randomly from the least-occupied channels
    (:class:`OccupancyIndex`).

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
    index = OccupancyIndex(range(n_channels))
    for client in range(n_clients):
        chosen = index.pick(k, rng)
        for ch in chosen:
            index.occupy(ch)
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
