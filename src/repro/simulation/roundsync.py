"""The wire plane of a live zone, under either execution engine.

A :class:`~repro.simulation.live.LiveZone` runs the SP data plane at
round granularity but historically had no *wire image* — nothing an
adversary could tap.  :class:`WireFabric` materializes the zone's
logical cell flows (client→SP upstream, SP→mix XOR rounds, mix→SP
downstream, SP→client broadcast) onto :mod:`repro.netsim` links, under
one of two execution engines:

* ``execution="event"`` — the classical per-cell schedule: one
  :class:`~repro.netsim.packet.Packet` and one heap event per cell, as
  a packet-level simulator would do.  O(cells) events per round.
* ``execution="batch-v2"`` — the vectorized plane (DESIGN.md §13): a
  :class:`~repro.netsim.rounds.RoundScheduler` fires one event per
  round, and the whole round is one run table with aggregate chaff
  accounting, so a constant-rate round costs O(runs), not O(cells).

Engines resolve by name through the :mod:`repro.execution` registry —
this module never string-matches beyond its resolved ``wire_mode``.

**Observational equivalence** (DESIGN.md §9): because Herd emission is
constant-rate — a function of the clock, never of payload (invariant
I6) — the engines offer the same cells to the same links at the
same virtual times in the same order, so a tap's
:class:`~repro.netsim.observer.LinkObserver` records *byte-identical*
observation streams under both.  The engines differ only in
cost: events processed, objects allocated.

The fabric is deliberately lazy: nodes and links appear on first
emission, so mid-run churn (SP failures, re-joins) needs no
re-wiring.  Links are zero-delay logical hops; the geographic path
delays live in :mod:`repro.simulation.wired`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import execution as execution_registry
from repro.core.transport import CellTransport
from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.observer import LinkObserver
from repro.netsim.packet import IP_UDP_HEADER_BYTES, Packet
from repro.netsim.rounds import RoundScheduler
from repro.netsim.taps import offer_round_runs

#: One codec frame (20 ms G.711): the round tick of the data plane.
DEFAULT_ROUND_INTERVAL_S = 0.02


def _noop_packet(_packet) -> None:
    return None


class WireFabric(CellTransport):
    """A zone's wire plane: cells offered to tapped links per round.

    Usage: construct, assign to ``zone.wire``, and every
    :meth:`LiveZone.step` flushes the round's cells through the
    fabric.  Attach the adversary via ``fabric.observer`` (a global
    passive tap on every link).

    Parameters
    ----------
    seed:
        Seed of the fabric's :class:`~repro.netsim.engine.EventLoop`
        (only consumed by lossy/jittery links; the default zero-delay
        fabric draws nothing).
    interval:
        Round tick in seconds of virtual time.
    execution:
        An engine name registered with :mod:`repro.execution` —
        ``"event"`` (per-cell events/packets) or ``"batch-v2"`` (one
        run table per round).
    observer:
        The tap attached to every link; defaults to a fresh global
        :class:`~repro.netsim.observer.LinkObserver`.  Further taps
        subscribe via :meth:`add_tap`.
    """

    def __init__(self, *, seed: int = 0,
                 interval: float = DEFAULT_ROUND_INTERVAL_S,
                 execution: str = "event",
                 observer: Optional[LinkObserver] = None):
        plane = execution_registry.resolve(execution)
        if plane.transport != "sim":
            raise ValueError(
                f"execution plane {plane.name!r} runs on the "
                f"{plane.transport!r} transport; build it through "
                f"repro.execution.create_wire_fabric, not "
                f"WireFabric")
        super().__init__()
        self.execution = plane.name
        self.wire_mode = plane.wire_mode
        self.loop = EventLoop(seed=seed)
        self.scheduler = RoundScheduler(self.loop, interval)
        self.scheduler.on_round(self._transmit_runs_queued)
        self.observer = observer if observer is not None \
            else LinkObserver()
        #: Every subscribed tap, adversary observer first; links fan
        #: out to all of them (see :mod:`repro.netsim.taps`).
        self.taps: List = [self.observer]
        self.nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: Wire-stat deltas from :meth:`finalize` whose link/node does
        #: not exist yet — the vector plane never *creates* topology
        #: just to hold counters; :meth:`link_between` / :meth:`node`
        #: drain these on first access.
        self._pending_link_stats: Dict[Tuple[str, str],
                                       List[int]] = {}
        self._pending_node_stats: Dict[str, List[int]] = {}

    # -- lazy topology ---------------------------------------------------------

    def node(self, name: str) -> Node:
        """Get or create the named endpoint (a counting sink: the
        protocol runs in the zone; the fabric carries the wire
        image)."""
        found = self.nodes.get(name)
        if found is None:
            found = Node(name, self.loop)
            found.on_packet(_noop_packet)
            self.nodes[name] = found
            pending = self._pending_node_stats.pop(name, None)
            if pending is not None:
                found.packets_received += pending[0]
                found.bytes_received += pending[1]
        return found

    def link_between(self, a_name: str, b_name: str) -> Link:
        """Get or create the zero-delay logical link between two
        endpoints, with the fabric's observer attached."""
        key = (a_name, b_name) if a_name <= b_name \
            else (b_name, a_name)
        found = self._links.get(key)
        if found is None:
            found = Link(self.loop, self.node(key[0]),
                         self.node(key[1]))
            for tap in self.taps:
                found.add_observer(tap)
            self._links[key] = found
            for src, dst in (key, key[::-1]):
                pending = self._pending_link_stats.pop((src, dst),
                                                       None)
                if pending is not None:
                    stats = found.stats[src]
                    stats.packets += pending[0]
                    stats.bytes += pending[1]
        return found

    def add_tap(self, tap) -> None:
        """Subscribe a wire tap (any consumer of the public protocol
        in :mod:`repro.netsim.taps`) to every link — current and
        future — alongside the adversary observer."""
        self.taps.append(tap)
        for link in self._links.values():
            link.add_observer(tap)

    # -- the round flush (the queue itself is CellTransport's) -----------------

    def flush_round(self, round_index: int) -> None:
        """Transmit everything queued, stamped at the round's tick.

        Event engine: one transmission event per cell (plus one
        delivery event each) — the per-cell hot path this fabric
        exists to measure.  Vector engine: a single round event that
        offers the round's run table to every tap.  Either way the
        cells hit the taps in identical order at the identical
        virtual time.
        """
        if self.wire_mode != "event":
            self.scheduler.run_round(round_index)
        else:
            t = self.scheduler.time_of(round_index)
            loop = self.loop
            for (src, dst), runs in self._pending.items():
                link = self.link_between(src, dst)
                sender = self.nodes[src]
                for payload, kind, count in runs:
                    for _ in range(count):
                        packet = Packet(payload, src, dst, kind=kind)
                        loop.schedule_at(
                            t, lambda lk=link, s=sender, p=packet:
                            lk.transmit(s, p))
                    self.cells_carried += count
            self._pending.clear()
            loop.run(until=t)
            self.rounds_flushed += 1

    def _transmit_runs_queued(self, round_index: int) -> None:
        """Vector-engine round handler (``batch-v2``).

        The round's runs flatten into one run *table* (parallel
        ``keys``/``sizes``/``counts`` rows, link-contiguous in
        first-emission order) offered to every tap through
        :func:`~repro.netsim.taps.offer_round_runs` — aggregate chaff
        accounting with O(runs) work and a small constant.  Link and
        node wire stats materialize from the accumulated totals at
        :meth:`finalize`, never per round.
        """
        t = self.scheduler.time_of(round_index)
        keys: List[Tuple[str, str]] = []
        sizes: List[int] = []
        counts: List[int] = []
        add_key = keys.append
        add_size = sizes.append
        add_count = counts.append
        for key, runs in self._pending.items():
            for payload, _kind, count in runs:
                add_key(key)
                add_size(len(payload) + IP_UDP_HEADER_BYTES)
                add_count(count)
        self._account_runs(keys, sizes, counts)
        for tap in self.taps:
            offer_round_runs(tap, t, keys, sizes, counts)
        self._pending.clear()
        self.rounds_flushed += 1

    def finalize(self) -> Optional[Dict[str, object]]:
        """Drain the vector plane's accumulated per-link totals into
        link/node wire stats and return what was drained.

        Deltas apply to *existing* topology; those for links/nodes
        nobody materialized stay pending and drain on first
        :meth:`link_between` / :meth:`node` access — stats are never
        a reason to allocate topology.

        Re-entrant: rounds flushed after a call reach the stats at
        the next one, and a call with nothing accumulated changes
        nothing.  A no-op (returns ``None``) for non-vector engines.
        Run consumers call this before reading wire stats.
        """
        if self.wire_mode != "vector":
            return None
        report = self._drain_link_totals()
        for (src, dst), (cells, n_bytes) in report["link_stats"].items():
            canonical = (src, dst) if src <= dst else (dst, src)
            link = self._links.get(canonical)
            if link is not None:
                stats = link.stats[src]
                stats.packets += cells
                stats.bytes += n_bytes
            else:
                entry = self._pending_link_stats.get((src, dst))
                if entry is None:
                    self._pending_link_stats[(src, dst)] = [cells,
                                                            n_bytes]
                else:
                    entry[0] += cells
                    entry[1] += n_bytes
            receiver = self.nodes.get(dst)
            if receiver is not None:
                receiver.packets_received += cells
                receiver.bytes_received += n_bytes
            else:
                entry = self._pending_node_stats.get(dst)
                if entry is None:
                    self._pending_node_stats[dst] = [cells, n_bytes]
                else:
                    entry[0] += cells
                    entry[1] += n_bytes
        return report

    # -- accounting ------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Heap events the wire plane cost so far — the quantity the
        vector engine exists to collapse."""
        return self.loop.events_processed

    def __repr__(self) -> str:
        return (f"WireFabric({self.execution}, "
                f"{self.rounds_flushed} rounds, "
                f"{self.cells_carried} cells, "
                f"{self.events_processed} events)")
