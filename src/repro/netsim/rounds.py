"""The round clock of the round-synchronous wire planes.

Herd's data plane is intrinsically round-based (§3.4, §3.6): clients,
SPs, and mixes emit cells at a constant rate every codec-frame round,
so a per-cell discrete-event schedule — one heap event plus one
:class:`~repro.netsim.packet.Packet` per cell — burns O(cells) Python
objects for a schedule that is a pure function of the clock.
:class:`RoundScheduler` is the alternative's clock over the
:class:`~repro.netsim.engine.EventLoop`: one heap event per round,
firing registered handlers in order, instead of one event per cell.
The vectorized ``batch-v2`` plane (:class:`~repro.simulation.roundsync
.WireFabric`) runs on it.
"""

from __future__ import annotations

from typing import Optional


class RoundScheduler:
    """A round clock over the event loop: one event per round.

    Registered handlers fire in registration order inside a single
    loop event at ``start + round_index * interval``; everything a
    round emits (the wire plane's whole run table) happens inside
    that one event, so the heap holds O(rounds) entries instead of
    O(cells).

    The scheduler supports two driving styles:

    * **push**: :meth:`run_rounds` schedules and executes ``n``
      consecutive rounds on the owned loop;
    * **external stepping**: :meth:`run_round` executes exactly one
      round (used by round-driven simulations that interleave their
      own synchronous work between rounds).
    """

    def __init__(self, loop, interval: float, start: float = 0.0):
        if interval <= 0:
            raise ValueError("round interval must be positive")
        if start < 0:
            raise ValueError("round start must be non-negative")
        self.loop = loop
        self.interval = interval
        self.start = start
        self.rounds_run = 0
        self._handlers = []

    def on_round(self, handler) -> None:
        """Register ``handler(round_index)`` to fire every round."""
        self._handlers.append(handler)

    def time_of(self, round_index: int) -> float:
        """Virtual time of a round's tick."""
        return self.start + round_index * self.interval

    def _fire(self, round_index: int) -> None:
        for handler in self._handlers:
            handler(round_index)
        self.rounds_run += 1

    def run_round(self, round_index: Optional[int] = None) -> int:
        """Execute one round (default: the next one) as a single loop
        event, running the loop up to the round's tick.  Returns the
        round index executed."""
        r = self.rounds_run if round_index is None else round_index
        t = self.time_of(r)
        self.loop.schedule_at(t, lambda: self._fire(r))
        self.loop.run(until=t)
        return r

    def run_rounds(self, n: int) -> None:
        """Execute ``n`` consecutive rounds."""
        for _ in range(n):
            self.run_round()
