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
* ``execution="batch"`` — round-synchronous batches: a
  :class:`~repro.netsim.rounds.RoundScheduler` fires one event per
  round and every link carries its round's cells as a single
  :class:`~repro.netsim.rounds.CellBatch`.  O(1) events per round.
* ``execution="batch-v2"`` — the vectorized plane (DESIGN.md §13):
  the whole round is one run table with aggregate chaff accounting,
  so a constant-rate round costs O(runs), not O(cells).

Engines resolve by name through the :mod:`repro.execution` registry —
this module never string-matches beyond its resolved ``wire_mode``.

**Observational equivalence** (DESIGN.md §9): because Herd emission is
constant-rate — a function of the clock, never of payload (invariant
I6) — the engines offer the same cells to the same links at the
same virtual times in the same order, so a tap's
:class:`~repro.netsim.observer.LinkObserver` records *byte-identical*
observation streams under all of them.  The engines differ only in
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
from repro.netsim.rounds import CellBatch, RoundScheduler
from repro.netsim.taps import offer_round_runs

#: One codec frame (20 ms G.711): the round tick of the data plane.
DEFAULT_ROUND_INTERVAL_S = 0.02


def _noop_packet(_packet) -> None:
    return None


def _noop_batch(_batch) -> None:
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
        ``"event"`` (per-cell events/packets), ``"batch"`` (one
        :class:`CellBatch` per link per round), or ``"batch-v2"``
        (one run table per round).
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
        self.execution = plane.name
        self.wire_mode = plane.wire_mode
        self.loop = EventLoop(seed=seed)
        self.scheduler = RoundScheduler(self.loop, interval)
        if self.wire_mode == "vector":
            self.scheduler.on_round(self._transmit_runs_queued)
        else:
            self.scheduler.on_round(self._transmit_queued)
        self.observer = observer if observer is not None \
            else LinkObserver()
        #: Every subscribed tap, adversary observer first; links fan
        #: out to all of them (see :mod:`repro.netsim.taps`).
        self.taps: List = [self.observer]
        self.nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: Vector mode accumulates per-link wire totals here
        #: (``[cells, bytes]`` per directed ``(src, dst)``) until
        #: :meth:`finalize` drains them into the lazy topology.
        self._link_totals: Dict[Tuple[str, str], List[int]] = {}
        self._vector_segments = 0
        #: Wire-stat deltas from :meth:`finalize` whose link/node does
        #: not exist yet — the vector plane never *creates* topology
        #: just to hold counters; :meth:`link_between` / :meth:`node`
        #: drain these on first access.
        self._pending_link_stats: Dict[Tuple[str, str],
                                       List[int]] = {}
        self._pending_node_stats: Dict[str, List[int]] = {}
        #: (src, dst) → queued (payload, kind, count) runs of the
        #: current round, in emission order (dict preserves insertion
        #: order).  ``count`` > 1 encodes a run of wire-identical
        #: cells sharing one payload reference (constant-rate fill).
        self._pending: Dict[Tuple[str, str],
                            List[Tuple[bytes, str, int]]] = {}
        self.rounds_flushed = 0
        self.cells_carried = 0

    # -- lazy topology ---------------------------------------------------------

    def node(self, name: str) -> Node:
        """Get or create the named endpoint (a counting sink: the
        protocol runs in the zone; the fabric carries the wire
        image)."""
        found = self.nodes.get(name)
        if found is None:
            found = Node(name, self.loop)
            found.on_packet(_noop_packet)
            found.on_batch(_noop_batch)
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

    # -- emission --------------------------------------------------------------

    def emit(self, src: str, dst: str, payload: bytes,
             kind: str = "data") -> None:
        """Queue one cell for this round's flush (payload by
        reference)."""
        pending = self._pending
        entry = pending.get((src, dst))
        if entry is None:
            pending[(src, dst)] = [(payload, kind, 1)]
        else:
            entry.append((payload, kind, 1))

    def emit_repeated(self, src: str, dst: str, payload: bytes,
                      n: int, kind: str = "chaff") -> None:
        """Queue ``n`` wire-identical cells sharing one payload
        reference — the constant-rate fill of a trunk link costs one
        queue entry regardless of the cell count (the batch engine
        carries it via :meth:`CellBatch.append_repeated`; the event
        engine expands it to n packets, as it would have anyway)."""
        if n < 0:
            raise ValueError("cannot emit a negative cell count")
        if n:
            pending = self._pending
            entry = pending.get((src, dst))
            if entry is None:
                pending[(src, dst)] = [(payload, kind, n)]
            else:
                entry.append((payload, kind, n))

    def flush_round(self, round_index: int) -> None:
        """Transmit everything queued, stamped at the round's tick.

        Event engine: one transmission event per cell (plus one
        delivery event each) — the per-cell hot path this fabric
        exists to measure.  Batch engine: a single round event inside
        which every link's vector rides one
        :meth:`~repro.netsim.link.Link.transmit_batch` call.
        Either way the cells hit the links in identical order at the
        identical virtual time.
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

    def _transmit_queued(self, round_index: int) -> None:
        """Batch-engine round handler: one CellBatch per pending
        link, transmitted inline (zero delay → no extra events)."""
        for (src, dst), runs in self._pending.items():
            link = self.link_between(src, dst)
            batch = CellBatch(src, dst, round_index)
            for payload, kind, count in runs:
                if count == 1:
                    batch.append(payload, kind=kind)
                else:
                    batch.append_repeated(payload, count, kind=kind)
            link.transmit_batch(self.nodes[src], batch)
            self.cells_carried += len(batch)
        self._pending.clear()
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
        totals = self._link_totals
        round_cells = 0
        for key, runs in self._pending.items():
            link_cells = 0
            link_bytes = 0
            for payload, _kind, count in runs:
                size = len(payload) + IP_UDP_HEADER_BYTES
                add_key(key)
                add_size(size)
                add_count(count)
                link_cells += count
                link_bytes += size * count
            entry = totals.get(key)
            if entry is None:
                totals[key] = [link_cells, link_bytes]
            else:
                entry[0] += link_cells
                entry[1] += link_bytes
            round_cells += link_cells
        self.cells_carried += round_cells
        self._vector_segments += len(keys)
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
        link_stats = {key: (c, b)
                      for key, (c, b) in self._link_totals.items()}
        segments = self._vector_segments
        self._link_totals = {}
        self._vector_segments = 0
        total_cells = total_bytes = 0
        for (src, dst), (cells, n_bytes) in link_stats.items():
            total_cells += cells
            total_bytes += n_bytes
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
        return {
            "cells": total_cells,
            "bytes": total_bytes,
            "segments": segments,
            "link_stats": link_stats,
        }

    # -- accounting ------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Heap events the wire plane cost so far — the quantity the
        batch engine exists to collapse."""
        return self.loop.events_processed

    def __repr__(self) -> str:
        return (f"WireFabric({self.execution}, "
                f"{self.rounds_flushed} rounds, "
                f"{self.cells_carried} cells, "
                f"{self.events_processed} events)")
