"""Chaff scheduling and link-rate control (§3.4).

Two mechanisms keep Herd links' time series independent of call
activity:

* :class:`ConstantRateChaffer` — the *client-link* policy (§3.4.1):
  every frame interval, exactly one fixed-size packet is emitted;
  payload is substituted for chaff when a call is active.  The emitted
  schedule is a function only of the clock, never of the payload.

* :class:`RateController` — the *SP- and mix-link* policy
  (§3.4.2–3.4.3): link rates are a multiple of the unit rate u, equal
  across a zone's SP links (and across intra-zone / per-zone-pair mix
  links), adjusted only at coarse epochs (hours) from aggregate
  utilization reports, "to accommodate diurnal load patterns, but [the
  changes] do not reveal individual call activity".
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.voip.codec import Codec, G711


class ConstantRateChaffer:
    """Emit one fixed-size packet per codec frame, payload or chaff.

    ``enqueue_payload`` queues outbound payload cells; ``tick`` returns
    what to send this frame: ``("payload", cell)`` or
    ``("chaff", None)``.  The *caller* of tick is a clock, so emission
    times are payload-independent by construction (invariant I6).

    ``rate_multiple`` carries n parallel slots per tick for links
    provisioned at a multiple of the unit rate.
    """

    def __init__(self, codec: Codec = G711, rate_multiple: int = 1):
        if rate_multiple < 1:
            raise ValueError("rate multiple must be at least 1")
        self.codec = codec
        self.rate_multiple = rate_multiple
        self._queue: Deque[bytes] = deque()
        self.payload_sent = 0
        self.chaff_sent = 0

    @property
    def interval(self) -> float:
        """Seconds between ticks."""
        return self.codec.frame_ms / 1000.0

    def enqueue_payload(self, cell: bytes) -> None:
        self._queue.append(cell)

    def pending(self) -> int:
        return len(self._queue)

    def tick(self) -> List[Optional[bytes]]:
        """One frame interval: returns ``rate_multiple`` slots, each a
        payload cell or None (meaning chaff)."""
        slots: List[Optional[bytes]] = []
        for _ in range(self.rate_multiple):
            if self._queue:
                slots.append(self._queue.popleft())
                self.payload_sent += 1
            else:
                slots.append(None)
                self.chaff_sent += 1
        return slots


@dataclass
class RateDecision:
    """One epoch's outcome for a link group."""

    epoch: int
    old_rate: int
    new_rate: int
    utilization: float


class RateController:
    """Epoch-based rate control for a *group* of links.

    All links in the group (e.g., every SP link of a zone) always carry
    the same rate, an integer multiple of the unit rate u.  At each
    epoch the controller receives the group's aggregate utilization
    (active calls / provisioned capacity) and moves the rate toward a
    target band with hysteresis:

    * utilization above ``high_water`` → scale up to reach ``target``;
    * utilization below ``low_water`` → scale down to ``target``;
    * otherwise keep the current rate (no information leaks between
      epochs).

    ``min_rate`` keeps every link at ≥ 1×u even in dead hours, so an
    idle zone still carries chaff.
    """

    def __init__(self, initial_rate: int = 1, target: float = 0.5,
                 low_water: float = 0.25, high_water: float = 0.85,
                 min_rate: int = 1, max_rate: Optional[int] = None):
        if not 0 < low_water < target < high_water <= 1.0:
            raise ValueError("need 0 < low_water < target < high_water ≤ 1")
        if initial_rate < min_rate:
            raise ValueError("initial rate below minimum")
        self.rate = initial_rate
        self.target = target
        self.low_water = low_water
        self.high_water = high_water
        self.min_rate = min_rate
        self.max_rate = max_rate
        self.history: List[RateDecision] = []

    def on_epoch(self, epoch: int, active_calls: float) -> int:
        """Report the epoch's aggregate active-call load; returns the
        rate (in multiples of u) for the next epoch."""
        if active_calls < 0:
            raise ValueError("active call count cannot be negative")
        utilization = active_calls / self.rate if self.rate else math.inf
        old = self.rate
        if utilization > self.high_water or utilization < self.low_water:
            desired = math.ceil(active_calls / self.target) \
                if active_calls > 0 else self.min_rate
            desired = max(self.min_rate, desired)
            if self.max_rate is not None:
                desired = min(self.max_rate, desired)
            self.rate = desired
        self.history.append(RateDecision(epoch, old, self.rate,
                                         utilization))
        return self.rate

    @property
    def adjustments(self) -> int:
        """Number of epochs where the rate actually changed."""
        return sum(1 for d in self.history if d.new_rate != d.old_rate)
