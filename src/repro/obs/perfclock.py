"""The one sanctioned wall-clock module (herdlint HL001 exemption).

Everything in the simulation tree is forbidden from reading the host
clock — determinism requires every *simulated* timestamp to come from
the virtual :class:`~repro.netsim.engine.EventLoop` clock, and
herdlint's HL001 gate enforces that mechanically.  The real-network
plane is the deliberate exception: how long a round's datagrams took
to cross loopback is a statement about the host, not the simulation.
That read funnels through this module; the HL001 allowlist
(``repro.lint.rules.WALL_CLOCK_ALLOWED_FILES``) names exactly this
file, and a meta-test pins that a stray ``time.time()`` anywhere else
still fails the gate.

The contract that keeps it determinism-safe:

* values returned here are only ever stored in the host side channel
  (``net_report()``'s ``wall_send_seconds``), never in metrics
  snapshots, traces, adversary observations, or anything folded into
  a ``determinism_key``;
* seeded code never branches on a value read here.
"""

from __future__ import annotations

import time


def perf_now() -> float:
    """Monotonic high-resolution host time in seconds (differences
    are meaningful, absolute values are not)."""
    return time.perf_counter()
