"""Tests for static channel assignment and online matching (§3.6.3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    ChannelAssignment,
    FirstFitMatcher,
    RankingMatcher,
    assign_clients_to_channels,
)


class TestChannelAssignment:
    def test_add_and_lookup(self):
        a = ChannelAssignment(4)
        a.add_client(0, (1, 3))
        assert a.channels_of[0] == (1, 3)
        assert a.clients_of[1] == [0]
        assert a.clients_of[3] == [0]
        assert a.n_clients == 1

    def test_duplicate_client_rejected(self):
        a = ChannelAssignment(4)
        a.add_client(0, (0,))
        with pytest.raises(ValueError):
            a.add_client(0, (1,))

    def test_duplicate_channels_rejected(self):
        a = ChannelAssignment(4)
        with pytest.raises(ValueError):
            a.add_client(0, (2, 2))

    def test_out_of_range_channel_rejected(self):
        a = ChannelAssignment(4)
        with pytest.raises(ValueError):
            a.add_client(0, (4,))

    def test_occupancy(self):
        a = ChannelAssignment(3)
        a.add_client(0, (0, 1))
        a.add_client(1, (0, 2))
        assert a.occupancy() == [2, 1, 1]


class TestGreedyAssignment:
    def test_every_client_gets_k_distinct_channels(self):
        a = assign_clients_to_channels(100, 20, 3, random.Random(1))
        for client, channels in a.channels_of.items():
            assert len(channels) == 3
            assert len(set(channels)) == 3

    def test_balanced_occupancy(self):
        a = assign_clients_to_channels(200, 10, 2, random.Random(2))
        occ = a.occupancy()
        # Greedy least-occupied keeps channels within one client.
        assert max(occ) - min(occ) <= 1

    def test_paper_fig3_configuration(self):
        # k=2, N=6, C=4 (Fig. 3): 12 attachment stubs over 4 channels
        # → perfectly balanced at 3 clients per channel.
        a = assign_clients_to_channels(6, 4, 2, random.Random(3))
        assert a.occupancy() == [3, 3, 3, 3]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            assign_clients_to_channels(10, 5, 0)
        with pytest.raises(ValueError):
            assign_clients_to_channels(10, 5, 6)

    def test_deterministic_with_seed(self):
        a = assign_clients_to_channels(50, 10, 3, random.Random(9))
        b = assign_clients_to_channels(50, 10, 3, random.Random(9))
        assert a.channels_of == b.channels_of

    @staticmethod
    def _rescanning(n_clients, n_channels, k, rng):
        """The rule as first written, rescanning every channel for
        each pick: the oracle of the bucketed index."""
        occupancy = [0] * n_channels
        channels_of = {}
        for client in range(n_clients):
            chosen = []
            for _ in range(k):
                candidates = [ch for ch in range(n_channels)
                              if ch not in chosen]
                min_occ = min(occupancy[ch] for ch in candidates)
                least = [ch for ch in candidates
                         if occupancy[ch] == min_occ]
                ch = rng.choice(least)
                chosen.append(ch)
                occupancy[ch] += 1
            channels_of[client] = tuple(chosen)
        return channels_of, rng.random()

    @pytest.mark.parametrize("n_clients,n_channels,k,seed", [
        (0, 4, 2, 0), (1, 1, 1, 1), (6, 4, 2, 3), (7, 3, 3, 4),
        (50, 10, 3, 9), (97, 16, 4, 5), (40, 5, 5, 6), (300, 25, 1, 7),
        (120, 12, 12, 8), (333, 40, 3, 10)])
    def test_bucketed_picks_equal_the_rescanning_rule(
            self, n_clients, n_channels, k, seed):
        # Same least-occupied list in the same order at every pick,
        # so the same draws, the same assignment and the same rng
        # state after it.
        rng = random.Random(seed)
        a = assign_clients_to_channels(n_clients, n_channels, k, rng)
        assert (a.channels_of, rng.random()) == self._rescanning(
            n_clients, n_channels, k, random.Random(seed))

    @given(st.integers(0, 60), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_bucketed_picks_equal_the_rescanning_rule_property(
            self, n_clients, n_channels, k, seed):
        k = min(k, n_channels)
        a = assign_clients_to_channels(n_clients, n_channels, k,
                                       random.Random(seed))
        assert a.channels_of == self._rescanning(
            n_clients, n_channels, k, random.Random(seed))[0]


class TestRankingMatcher:
    def _matcher(self, n_clients=20, n_channels=10, k=2, seed=0):
        a = assign_clients_to_channels(n_clients, n_channels, k,
                                       random.Random(seed))
        return RankingMatcher(a, random.Random(seed))

    def test_allocates_free_channel_from_clients_set(self):
        m = self._matcher()
        ch = m.try_allocate(0)
        assert ch in m.assignment.channels_of[0]
        assert m.is_busy(ch)

    def test_highest_rank_preferred(self):
        a = ChannelAssignment(2)
        a.add_client(0, (0, 1))
        m = RankingMatcher(a, random.Random(0))
        ch = m.try_allocate(0)
        # The chosen channel must be the better-ranked of the two.
        other = 1 - ch
        assert m.rank(ch) < m.rank(other)

    def test_blocked_when_all_channels_busy(self):
        a = ChannelAssignment(1)
        a.add_client(0, (0,))
        a.add_client(1, (0,))
        m = RankingMatcher(a)
        assert m.try_allocate(0) == 0
        assert m.try_allocate(1) is None
        assert m.calls_blocked == 1

    def test_release_frees_channel(self):
        a = ChannelAssignment(1)
        a.add_client(0, (0,))
        a.add_client(1, (0,))
        m = RankingMatcher(a)
        m.try_allocate(0)
        m.release(0)
        assert m.try_allocate(1) == 0

    def test_client_cannot_hold_two_calls(self):
        m = self._matcher()
        assert m.try_allocate(0) is not None
        assert m.try_allocate(0) is None

    def test_release_unknown_client_is_noop(self):
        m = self._matcher()
        m.release(99)  # no exception

    def test_unassigned_client_raises(self):
        m = self._matcher(n_clients=5)
        with pytest.raises(KeyError):
            m.try_allocate(1000)

    def test_blocking_rate(self):
        a = ChannelAssignment(1)
        a.add_client(0, (0,))
        a.add_client(1, (0,))
        m = RankingMatcher(a)
        m.try_allocate(0)
        m.try_allocate(1)
        assert m.blocking_rate == 0.5
        assert m.channels_in_use == 1

    def test_blocking_rate_empty(self):
        assert self._matcher().blocking_rate == 0.0

    def test_more_channels_per_client_reduces_blocking(self):
        # The paper: attaching to 3 channels instead of 2 cuts average
        # blocking by an order of magnitude.  Directionally: k=3 must
        # not block more than k=2 under identical load.
        rates = {}
        for k in (2, 3):
            rng = random.Random(5)
            a = assign_clients_to_channels(300, 30, k, rng)
            m = RankingMatcher(a, rng)
            blocked = attempts = 0
            active = []
            for step in range(2000):
                client = rng.randrange(300)
                attempts += 1
                if m.try_allocate(client) is None:
                    blocked += 1
                else:
                    active.append(client)
                if len(active) > 20:  # keep ~20 concurrent calls
                    m.release(active.pop(0))
            rates[k] = blocked / attempts
        assert rates[3] <= rates[2]


class TestFirstFitMatcher:
    def test_allocates_lowest_channel(self):
        a = ChannelAssignment(3)
        a.add_client(0, (2, 0, 1))
        m = FirstFitMatcher(a)
        assert m.try_allocate(0) == 0

    def test_blocks_like_ranking(self):
        a = ChannelAssignment(1)
        a.add_client(0, (0,))
        a.add_client(1, (0,))
        m = FirstFitMatcher(a)
        m.try_allocate(0)
        assert m.try_allocate(1) is None


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(2, 60), n_channels=st.integers(1, 20),
       k=st.integers(1, 5), seed=st.integers(0, 99))
def test_matcher_never_double_books_property(n_clients, n_channels, k, seed):
    k = min(k, n_channels)
    rng = random.Random(seed)
    a = assign_clients_to_channels(n_clients, n_channels, k, rng)
    m = RankingMatcher(a, rng)
    active = {}
    for _ in range(200):
        client = rng.randrange(n_clients)
        if client in active:
            m.release(client)
            del active[client]
        else:
            ch = m.try_allocate(client)
            if ch is not None:
                assert ch not in active.values()
                active[client] = ch
    assert m.channels_in_use == len(active)
