"""Bounded retries with backoff (§3.1, §3.5).

Herd's availability story rests on clients recovering from mix and SP
failures: "In the case of a mix or superpeer failure, a client contacts
another mix in the same zone and re-joins."  Every such recovery is a
:class:`LoopRetry`: attempts scheduled as events on the run's
:class:`~repro.netsim.engine.EventLoop`, spaced by a
:class:`BackoffPolicy` (exponential, jittered by a seeded rng), so a
recovery replays bit-for-bit and never touches the wall clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple, Type


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with bounded attempts and optional jitter.

    The delay after the n-th consecutive failure (1-based) is

        min(max_delay_s, base_delay_s * multiplier ** (n - 1))

    scaled by a uniform ±``jitter`` fraction when an ``rng`` is given
    (jitter de-synchronizes mass re-joins after a zone-wide failure;
    a seeded rng keeps it deterministic).
    """

    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    max_attempts: int = 6
    jitter: float = 0.1

    def __post_init__(self):
        if self.base_delay_s < 0:
            raise ValueError("base delay cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max delay cannot be below the base delay")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_for(self, failures: int,
                  rng: Optional[random.Random] = None) -> float:
        """Backoff delay after the ``failures``-th failure (1-based)."""
        if failures < 1:
            raise ValueError("failures is a 1-based count")
        delay = min(self.max_delay_s,
                    self.base_delay_s * self.multiplier ** (failures - 1))
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)


@dataclass
class LoopRetry:
    """Bounded retries as events on a netsim event loop.

    The first attempt runs at ``start_delay_s``; each failure schedules
    the next attempt after the policy's backoff (jittered with the
    loop's seeded rng unless one is supplied).  Callbacks receive the
    task itself, which exposes ``value``, ``attempts`` and
    ``backoff_s``.
    """

    loop: Any
    fn: Callable[[], Any]
    policy: BackoffPolicy = field(default_factory=BackoffPolicy)
    rng: Optional[random.Random] = None
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)
    on_success: Optional[Callable[["LoopRetry"], None]] = None
    on_give_up: Optional[Callable[["LoopRetry"], None]] = None
    start_delay_s: float = 0.0

    def __post_init__(self):
        self.attempts = 0
        self.backoff_s = 0.0
        self.started_at = self.loop.now
        self.finished_at: Optional[float] = None
        self.value: Any = None
        self.failure: Optional[BaseException] = None
        self.done = False
        self.succeeded = False
        self.loop.schedule(self.start_delay_s, self._attempt)

    def _attempt(self) -> None:
        self.attempts += 1
        try:
            value = self.fn()
        except self.retry_on as exc:
            if self.attempts >= self.policy.max_attempts:
                self.done = True
                self.failure = exc
                self.finished_at = self.loop.now
                if self.on_give_up is not None:
                    self.on_give_up(self)
                return
            delay = self.policy.delay_for(
                self.attempts, self.rng if self.rng is not None
                else getattr(self.loop, "rng", None))
            self.backoff_s += delay
            self.loop.schedule(delay, self._attempt)
        else:
            self.done = True
            self.succeeded = True
            self.value = value
            self.finished_at = self.loop.now
            if self.on_success is not None:
                self.on_success(self)

    @property
    def elapsed_s(self) -> Optional[float]:
        """Virtual time from start to resolution (None while pending)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at
