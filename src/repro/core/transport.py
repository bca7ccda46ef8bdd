"""The Transport seam: what the round engine emits cells *into*.

The protocol layer — the dispatch state machines
(:mod:`repro.core.dispatch`), :class:`~repro.core.superpeer.SuperPeer`,
:class:`~repro.core.mix.HerdMix`, :class:`~repro.core.client
.HerdClient`, the directory and join flows — computes what every node
says each round.  *How* those cells travel is this seam: a
:class:`CellTransport` receives the round's emissions and materializes
them as a wire image an adversary could tap.

Two implementations exist, and protocol code imports **neither**:

* :class:`~repro.simulation.roundsync.WireFabric` — the simulator
  transports (``event`` / ``batch-v2``): virtual-time netsim links,
  one heap event per cell or one run table per round (DESIGN.md
  §9/§13).
* :class:`~repro.net.transport.UdpFabric` — the real-network
  transport (``asyncio``): every cell rides a framed UDP datagram
  between per-node asyncio endpoints over loopback, bootstrapped by
  the :mod:`repro.net.introducer` (DESIGN.md §14).

The concrete transport is chosen by name through
:func:`repro.execution.create_wire_fabric`; a
:class:`~repro.simulation.live.LiveZone` only ever talks to this
interface.  Both implementations feed the same public tap protocol
(:mod:`repro.netsim.taps`), which is what makes wiretap observations,
herdscope metrics, and report rows transport-invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class CellTransport:
    """Abstract wire plane of one zone.

    The round engine drives the transport through :meth:`emit` /
    :meth:`emit_each` / :meth:`emit_repeated` while computing a round,
    one :meth:`flush_round` at the round barrier, and one
    :meth:`finalize` at end of run.  Everything else
    (:attr:`observer`, :meth:`add_tap`, the cost counters) is the
    observation surface run consumers read.

    The round queue is this class's: every implementation drains the
    same ``_pending`` table at its flush, and run-table planes
    accumulate per-link wire totals through :meth:`_account_runs` and
    publish them through :meth:`_drain_link_totals`.  Offering a round
    to the taps stays with each implementation — the tap protocol
    lives in :mod:`repro.netsim.taps`, which protocol code does not
    import.
    """

    #: The adversary's tap (a :class:`~repro.netsim.observer
    #: .LinkObserver` by default); every implementation offers each
    #: round's traffic to it through :mod:`repro.netsim.taps`.
    observer = None

    def __init__(self):
        #: (src, dst) → queued (payload, kind, count) runs of the
        #: current round, in emission order (dict preserves insertion
        #: order).  ``count`` > 1 encodes a run of wire-identical
        #: cells sharing one payload reference (constant-rate fill).
        self._pending: Dict[Tuple[str, str],
                            List[Tuple[bytes, str, int]]] = {}
        #: Per-link wire totals (``[cells, bytes]`` per directed
        #: ``(src, dst)``) and run-table rows accumulated since the
        #: last :meth:`finalize`.
        self._link_totals: Dict[Tuple[str, str], List[int]] = {}
        self._segments = 0
        self.rounds_flushed = 0
        self.cells_carried = 0

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

    def emit_each(self, links: Sequence[Tuple[str, str]],
                  payloads: Sequence[bytes], kind: str = "data") -> None:
        """:meth:`emit` of ``payloads[i]`` on ``links[i]`` — ``(src,
        dst)`` pairs — for every i, in order: a channel's members'
        cells in one call."""
        pending = self._pending
        for link, payload in zip(links, payloads):
            entry = pending.get(link)
            if entry is None:
                pending[link] = [(payload, kind, 1)]
            else:
                entry.append((payload, kind, 1))

    def emit_repeated(self, src: str, dst: str, payload: bytes,
                      n: int, kind: str = "chaff") -> None:
        """Queue ``n`` wire-identical cells sharing one payload
        reference — the constant-rate fill of a trunk link costs one
        queue entry regardless of the cell count."""
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
        """Carry everything queued, stamped at the round's virtual
        time, and offer it to every subscribed tap."""
        raise NotImplementedError

    def finalize(self) -> Optional[Dict[str, object]]:
        """Complete deferred work (wire-stat publication, socket
        teardown).  Run consumers call this before reading stats.
        Re-entrant: rounds flushed after a call reach the stats at
        the next one."""
        raise NotImplementedError

    def add_tap(self, tap) -> None:
        """Subscribe a wire tap (the :mod:`repro.netsim.taps`
        protocol) alongside the adversary observer."""
        raise NotImplementedError

    def net_report(self) -> Optional[Dict[str, object]]:
        """Host-network side channel (wall-clock latency, datagram
        accounting) for transports that have one; ``None`` on the
        simulator planes.  Never part of any determinism surface."""
        return None

    # -- run-table accounting --------------------------------------------------

    def _account_runs(self, keys: List[Tuple[str, str]],
                      sizes: List[int], counts: List[int]) -> None:
        """Add one round's run table (row ``i``: ``counts[i]`` cells
        of ``sizes[i]`` bytes on link ``keys[i]``) to the per-link
        totals and the carried-cell count."""
        totals = self._link_totals
        for key, size, count in zip(keys, sizes, counts):
            entry = totals.get(key)
            if entry is None:
                totals[key] = [count, size * count]
            else:
                entry[0] += count
                entry[1] += size * count
        self._segments += len(keys)
        self.cells_carried += sum(counts)

    def _drain_link_totals(self) -> Dict[str, object]:
        """Hand over everything accumulated since the last call as
        the :meth:`finalize` report, and start afresh."""
        link_stats = {key: (c, b)
                      for key, (c, b) in self._link_totals.items()}
        report = {
            "cells": sum(c for c, _ in link_stats.values()),
            "bytes": sum(b for _, b in link_stats.values()),
            "segments": self._segments,
            "link_stats": link_stats,
        }
        self._link_totals = {}
        self._segments = 0
        return report
