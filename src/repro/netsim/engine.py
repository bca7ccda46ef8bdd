"""Deterministic discrete-event loop with a virtual clock.

All Herd protocol simulations run on this loop: packet deliveries,
chaff-clock ticks, call arrivals from the workload trace, and directory
rate-adjustment epochs are all events.  Determinism (a seeded RNG plus a
stable tie-break on the heap) makes every experiment in the benchmark
harness reproducible bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by (time, sequence) so that events
    scheduled earlier at the same timestamp run first."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it (O(1) lazy deletion)."""
        self.cancelled = True


class EventLoop:
    """A priority-queue event loop with virtual time in seconds.

    Parameters
    ----------
    seed:
        Seed for the loop's :class:`random.Random`, shared by every
        component that needs randomness (links' jitter/loss, protocol
        decisions) so one seed reproduces a whole run.
    """

    def __init__(self, seed: int = 0):
        self._queue = []
        self._counter = itertools.count()
        #: Packet ids are allocated per loop, not per process, so two
        #: identically-seeded runs in one interpreter stamp identical
        #: ids (the determinism contract; see netsim.packet).
        self._packet_ids = itertools.count()
        self._now = 0.0
        self.rng = random.Random(seed)
        self.events_processed = 0
        #: Optional observability hook (see :class:`repro.obs
        #: .instrument.LoopHook`); installed by
        #: :meth:`repro.obs.instrument.Herdscope.attach_loop`.
        self.obs = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def next_packet_id(self) -> int:
        """Allocate the next loop-local packet id (stamped onto
        packets by :meth:`~repro.netsim.link.Link.transmit`)."""
        return next(self._packet_ids)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        event = Event(self._now + delay, next(self._counter), callback)
        heapq.heappush(self._queue, event)
        if self.obs is not None:
            self.obs.scheduled(self, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError("cannot schedule events in the past")
        event = Event(time, next(self._counter), callback)
        heapq.heappush(self._queue, event)
        if self.obs is not None:
            self.obs.scheduled(self, event)
        return event

    def schedule_periodic(self, interval: float,
                          callback: Callable[[], None],
                          start_delay: Optional[float] = None) -> Event:
        """Schedule ``callback`` every ``interval`` seconds.

        Returns the *first* event; cancelling it stops the recurrence
        (each firing checks the original handle's ``cancelled`` flag).
        """
        if interval <= 0:
            raise ValueError("periodic interval must be positive")
        handle = Event(0.0, -1, callback)  # master cancellation handle

        def fire():
            if handle.cancelled:
                return
            callback()
            self.schedule(interval, fire)

        first_delay = interval if start_delay is None else start_delay
        self.schedule(first_delay, fire)
        return handle

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is
        empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self.events_processed += 1
            if self.obs is not None:
                self.obs.fired(self, event)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue empties, virtual time passes
        ``until``, or ``max_events`` have been processed.

        ``_now`` advances to ``until`` (never backwards) on every exit
        path where the queue is exhausted — including when it holds
        only cancelled events, which are drained without counting
        toward ``max_events``.
        """
        processed = 0
        while self._queue:
            next_event = self._queue[0]
            if next_event.cancelled:
                heapq.heappop(self._queue)
                continue
            if max_events is not None and processed >= max_events:
                return
            if until is not None and next_event.time > until:
                self._now = max(self._now, until)
                return
            self.step()
            processed += 1
        if until is not None and until > self._now:
            self._now = until

    def cancel_all(self) -> None:
        """Cancel every queued event and empty the queue.

        Outstanding :class:`Event` handles (including the master
        handles of periodic schedules) observe ``cancelled`` so nothing
        re-arms itself.  Used by fault injectors and tests to tear a
        simulation down cleanly mid-run.

        When an observability hook is attached, it is told how many
        live events were cancelled and drains every trace span the
        cancelled events would have closed — a mid-run teardown must
        not leak open spans into the next run.
        """
        n_cancelled = 0
        for event in self._queue:
            if not event.cancelled:
                n_cancelled += 1
            event.cancel()
        self._queue.clear()
        if self.obs is not None:
            self.obs.cancelled_all(self, n_cancelled)

    def pending(self) -> int:
        """Number of uncancelled events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)
