"""Tests: bounded retries with backoff on the event loop (§3.1, §3.5)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.retry import BackoffPolicy, LoopRetry
from repro.netsim.engine import EventLoop


class TestBackoffPolicy:
    def test_exponential_schedule(self):
        policy = BackoffPolicy(base_delay_s=1.0, multiplier=2.0,
                               max_delay_s=5.0, jitter=0.0)
        assert [policy.delay_for(n) for n in (1, 2, 3, 4)] == \
            [1.0, 2.0, 4.0, 5.0]  # capped at max_delay_s

    def test_jitter_is_bounded_and_deterministic(self):
        policy = BackoffPolicy(base_delay_s=1.0, jitter=0.25)
        delays = [policy.delay_for(1, random.Random(7)) for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]
        assert 0.75 <= delays[0] <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_delay_s=0.1, base_delay_s=0.2)
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy().delay_for(0)

    def test_zero_jitter_draws_nothing_from_rng(self):
        """Without jitter the rng is left untouched, so a jitter-free
        policy cannot shift any other draw from a shared seeded rng."""
        policy = BackoffPolicy(base_delay_s=1.0, jitter=0.0)
        rng = random.Random(5)
        state = rng.getstate()
        assert policy.delay_for(2, rng) == policy.delay_for(2) == 2.0
        assert rng.getstate() == state


class TestLoopRetry:
    def test_pending_until_the_loop_runs(self):
        """Constructing a task only schedules its first attempt."""
        loop = EventLoop()
        calls = []
        task = LoopRetry(loop=loop, fn=lambda: calls.append(loop.now))
        assert calls == [] and task.attempts == 0
        assert not task.done and not task.succeeded
        assert task.elapsed_s is None and task.failure is None
        assert loop.pending() == 1
        loop.run()
        assert calls == [0.0] and task.succeeded

    def test_explicit_rng_overrides_loop_rng(self):
        """A supplied rng sets the jitter, whatever the loop's seed."""
        def attempt_times(loop_seed):
            loop = EventLoop(seed=loop_seed)
            calls = []

            def flaky():
                calls.append(loop.now)
                if len(calls) < 4:
                    raise RuntimeError("not yet")

            LoopRetry(loop=loop, fn=flaky, rng=random.Random(42),
                      policy=BackoffPolicy(base_delay_s=1.0, jitter=0.5),
                      retry_on=(RuntimeError,))
            loop.run()
            return calls

        assert attempt_times(1) == attempt_times(2)
        assert len(attempt_times(1)) == 4

    def test_retry_on_matches_subclasses(self):
        """``retry_on`` is an ``except`` clause: a subclass retries."""
        loop = EventLoop()
        calls = []

        def flaky():
            calls.append(loop.now)
            if len(calls) == 1:
                raise KeyError("mix gone")
            return "joined"

        task = LoopRetry(loop=loop, fn=flaky, retry_on=(LookupError,),
                         policy=BackoffPolicy(jitter=0.0))
        loop.run()
        assert task.succeeded and task.value == "joined"
        assert task.attempts == 2

    def test_elapsed_counts_from_construction(self):
        """``elapsed_s`` runs from when the task was made, so a start
        delay counts toward it."""
        loop = EventLoop()
        loop.run(until=5.0)
        task = LoopRetry(loop=loop, fn=lambda: None, start_delay_s=1.5)
        loop.run()
        assert task.started_at == 5.0
        assert task.finished_at == 6.5
        assert task.elapsed_s == 1.5 and task.backoff_s == 0.0

    def test_single_attempt_policy_gives_up_without_backoff(self):
        loop = EventLoop()

        def down():
            raise RuntimeError("down")

        task = LoopRetry(loop=loop, fn=down, retry_on=(RuntimeError,),
                         policy=BackoffPolicy(max_attempts=1))
        loop.run()
        assert task.done and not task.succeeded
        assert task.attempts == 1 and task.backoff_s == 0.0
        assert task.elapsed_s == 0.0
        assert loop.pending() == 0

    def test_tasks_on_one_loop_run_in_virtual_time_order(self):
        """Two re-joins on one loop interleave by virtual time, each
        keeping its own attempt count."""
        loop = EventLoop()
        log = []

        def flaky(name, failures):
            def fn():
                log.append((loop.now, name))
                if sum(1 for _, n in log if n == name) <= failures:
                    raise RuntimeError(name)
            return fn

        policy = BackoffPolicy(base_delay_s=1.0, jitter=0.0)
        a = LoopRetry(loop=loop, fn=flaky("a", 2), policy=policy,
                      retry_on=(RuntimeError,))
        b = LoopRetry(loop=loop, fn=flaky("b", 1), policy=policy,
                      retry_on=(RuntimeError,), start_delay_s=0.5)
        loop.run()
        assert log == [(0.0, "a"), (0.5, "b"), (1.0, "a"), (1.5, "b"),
                       (3.0, "a")]
        assert (a.attempts, b.attempts) == (3, 2)
        assert a.succeeded and b.succeeded

    def test_succeeds_on_loop_with_backoff(self):
        loop = EventLoop(seed=3)
        attempts = []

        def flaky():
            attempts.append(loop.now)
            if len(attempts) < 3:
                raise RuntimeError("not yet")
            return "ok"

        done = []
        task = LoopRetry(
            loop=loop, fn=flaky,
            policy=BackoffPolicy(base_delay_s=1.0, jitter=0.0),
            retry_on=(RuntimeError,),
            on_success=lambda t: done.append(t.value))
        loop.run()
        assert done == ["ok"]
        assert task.succeeded and task.done
        assert task.attempts == 3
        assert task.backoff_s == 3.0
        assert attempts == [0.0, 1.0, 3.0]
        assert task.elapsed_s == 3.0

    def test_gives_up_and_reports(self):
        loop = EventLoop(seed=3)

        def always_fails():
            raise RuntimeError("down for good")

        failures = []
        task = LoopRetry(
            loop=loop, fn=always_fails,
            policy=BackoffPolicy(max_attempts=2, base_delay_s=0.5,
                                 jitter=0.0),
            retry_on=(RuntimeError,),
            on_give_up=lambda t: failures.append(t.attempts))
        loop.run()
        assert failures == [2]
        assert task.done and not task.succeeded
        assert isinstance(task.failure, RuntimeError)

    def test_unlisted_exception_escapes_after_one_attempt(self):
        loop = EventLoop()
        calls = []

        def boom():
            calls.append(loop.now)
            raise ZeroDivisionError

        task = LoopRetry(loop=loop, fn=boom, retry_on=(KeyError,))
        with pytest.raises(ZeroDivisionError):
            loop.run()
        assert calls == [0.0]
        assert task.attempts == 1 and not task.done

    def test_start_delay_defers_first_attempt(self):
        loop = EventLoop()
        times = []
        LoopRetry(loop=loop, fn=lambda: times.append(loop.now),
                  start_delay_s=2.0)
        loop.run()
        assert times == [2.0]

    @given(fail_n=st.integers(0, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_attempts_accounting_property(self, fail_n, seed):
        """A function that fails ``fail_n`` times then succeeds is
        called exactly ``fail_n + 1`` times, and the task agrees."""
        loop = EventLoop(seed=seed)
        calls = []

        def flaky():
            calls.append(loop.now)
            if len(calls) <= fail_n:
                raise RuntimeError("not yet")
            return "ok"

        task = LoopRetry(
            loop=loop, fn=flaky,
            policy=BackoffPolicy(base_delay_s=0.1, max_attempts=6,
                                 jitter=0.2),
            retry_on=(RuntimeError,))
        loop.run()
        assert task.succeeded
        assert task.attempts == len(calls) == fail_n + 1
        # Attempt times are strictly increasing virtual times.
        assert calls == sorted(calls)

    def test_jitter_uses_loop_rng_by_default(self):
        def run_once():
            loop = EventLoop(seed=11)
            calls = []

            def flaky():
                calls.append(loop.now)
                if len(calls) < 2:
                    raise RuntimeError("once")

            LoopRetry(loop=loop, fn=flaky,
                      policy=BackoffPolicy(base_delay_s=1.0, jitter=0.3),
                      retry_on=(RuntimeError,))
            loop.run()
            return calls

        assert run_once() == run_once()  # same seed, same jitter


class TestBackoffProperties:
    """Hypothesis sweep of the §3.5 backoff contract: delays stay in
    the policy's cap, and seeded jitter replays bit-for-bit."""

    policies = st.builds(
        BackoffPolicy,
        base_delay_s=st.floats(0.01, 2.0),
        multiplier=st.floats(1.0, 4.0),
        max_delay_s=st.floats(2.0, 30.0),
        jitter=st.floats(0.0, 0.9),
        max_attempts=st.integers(1, 10))

    @given(policy=policies, failures=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_delays_bounded_by_cap(self, policy, failures, seed):
        delay = policy.delay_for(failures, random.Random(seed))
        assert delay >= 0.0
        assert delay <= policy.max_delay_s * (1.0 + policy.jitter)

    @given(policy=policies, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equal_seeds_bit_identical_sequences(self, policy, seed):
        def sequence():
            rng = random.Random(seed)
            return [policy.delay_for(n, rng) for n in range(1, 12)]

        first, second = sequence(), sequence()
        assert first == second  # float-exact, not approximate

    @given(max_attempts=st.integers(1, 8),
           seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_give_up_counts_every_attempt(self, max_attempts, seed):
        loop = EventLoop(seed=seed)
        calls = []

        def always_fails():
            calls.append(loop.now)
            raise KeyError(f"down #{len(calls)}")

        task = LoopRetry(
            loop=loop, fn=always_fails,
            policy=BackoffPolicy(base_delay_s=0.1,
                                 max_attempts=max_attempts, jitter=0.3),
            retry_on=(KeyError,))
        loop.run()
        assert task.done and not task.succeeded
        assert task.attempts == max_attempts == len(calls)
        assert isinstance(task.failure, KeyError)
        assert task.failure.args == (f"down #{max_attempts}",)

    @given(max_attempts=st.integers(1, 8),
           start_delay_s=st.floats(0.0, 5.0),
           seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_give_up_time_is_start_delay_plus_backoff(
            self, max_attempts, start_delay_s, seed):
        """A task that never succeeds resolves after its start delay
        and the backoff it reports, and after nothing else."""
        loop = EventLoop(seed=seed)

        def always_fails():
            raise RuntimeError("down")

        task = LoopRetry(
            loop=loop, fn=always_fails,
            policy=BackoffPolicy(base_delay_s=0.2,
                                 max_attempts=max_attempts, jitter=0.4),
            retry_on=(RuntimeError,), start_delay_s=start_delay_s)
        loop.run()
        assert task.done and not task.succeeded
        assert task.elapsed_s == pytest.approx(
            start_delay_s + task.backoff_s, abs=1e-9)
        assert (task.backoff_s == 0.0) == (max_attempts == 1)
