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

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: A directed link: ``(src, dst)`` node names.
LinkKey = Tuple[str, str]


class RoundTable(NamedTuple):
    """One round's drained queue as a run table: row ``i`` is
    ``counts[i]`` wire-identical cells of ``sizes[i]`` bytes on the
    directed link ``keys[i]``, rows link-contiguous in first-emission
    order — the table :func:`repro.netsim.taps.offer_round_runs`
    takes.  The three columns are Python lists of tuples and ints,
    and they are read-only: a steady round — one whose shape repeats
    the last round's (:meth:`CellTransport._drain_round`) — hands back
    the previous round's lists, with this round's payloads and
    kinds."""

    keys: List[LinkKey]
    sizes: List[int]
    counts: List[int]
    #: The rows' payloads and kinds in *emission* order, and the
    #: emission position of each table row; read through :meth:`runs`.
    payloads: Tuple[bytes, ...]
    kinds: Tuple[str, ...]
    order: np.ndarray

    def runs(self) -> List[Tuple[LinkKey, bytes, str, int]]:
        """The table as ``(key, payload, kind, count)`` rows, for the
        planes that carry payloads (``event``, ``asyncio``)."""
        payloads, kinds = self.payloads, self.kinds
        return [(key, payloads[i], kinds[i], count)
                for key, i, count in zip(self.keys, self.order.tolist(),
                                         self.counts)]


class CellTransport:
    """Abstract wire plane of one zone.

    The round engine drives the transport through :meth:`emit` /
    :meth:`emit_each` / :meth:`emit_repeated` while computing a round,
    one :meth:`flush_round` at the round barrier, and one
    :meth:`finalize` at end of run.  Everything else
    (:attr:`observer`, :meth:`add_tap`, the cost counters) is the
    observation surface run consumers read.

    The round queue is this class's.  A link gets an integer id the
    first time a cell is emitted on it (an append-only id →
    ``(src, dst)`` table, and one ``src`` → ``{dst: id}`` index that
    an emission reads with two subscripts), and every emission appends
    its four fields ``link_id, payload, kind, count`` to one flat
    list, so the round's queue holds no per-row tuple.  Every
    implementation takes its round from :meth:`_drain_round`, which
    reads the queue's columns as stride slices and builds the round's
    run table with numpy — or reuses the last
    round's when the round repeats its shape — and adds it to per-link
    ``(cells, bytes)`` totals kept as arrays indexed by link id;
    :meth:`_drain_link_totals` turns those into the
    ``(src, dst)``-keyed :meth:`finalize` report.  Offering a round
    to the taps stays with each implementation — the tap protocol
    lives in :mod:`repro.netsim.taps`, which protocol code does not
    import.
    """

    #: The adversary's tap (a :class:`~repro.netsim.observer
    #: .LinkObserver` by default); every implementation offers each
    #: round's traffic to it through :mod:`repro.netsim.taps`.
    observer = None

    def __init__(self):
        #: Link id → ``(src, dst)`` in first-emission order, and back
        #: as ``src`` → ``{dst: id}``; both written only by
        #: :meth:`_link_id`.
        self._link_keys: List[LinkKey] = []
        self._link_index: Dict[str, Dict[str, int]] = {}
        #: The current round's emissions in emission order, four
        #: fields each — ``link_id, payload, kind, count`` — in one
        #: flat list; :meth:`_drain_round` reads field ``j`` as the
        #: slice ``[j::4]``.  ``count`` > 1 encodes a run of
        #: wire-identical cells sharing one payload reference
        #: (constant-rate fill).
        self._queue: list = []
        #: Per-link wire totals (cells, bytes) by link id and the
        #: run-table rows, accumulated since the last :meth:`finalize`.
        self._link_cells = np.zeros(0, np.int64)
        self._link_bytes = np.zeros(0, np.int64)
        self._segments = 0
        #: The last round's shape and what :meth:`_build_round` made
        #: of it, reused while the shape repeats.
        self._last_round: Optional[tuple] = None
        self.rounds_flushed = 0
        self.cells_carried = 0

    def _link_id(self, src: str, dst: str) -> int:
        """The id of the link ``src`` → ``dst``, assigned here if it is
        new."""
        dsts = self._link_index.setdefault(src, {})
        link_id = dsts.get(dst)
        if link_id is None:
            link_id = dsts[dst] = len(self._link_keys)
            self._link_keys.append((src, dst))
        return link_id

    def emit(self, src: str, dst: str, payload: bytes,
             kind: str = "data") -> None:
        """Queue one cell for this round's flush (payload by
        reference)."""
        try:
            link_id = self._link_index[src][dst]
        except KeyError:
            link_id = self._link_id(src, dst)
        self._queue += (link_id, payload, kind, 1)

    def emit_each(self, links: Sequence[LinkKey],
                  payloads: Sequence[bytes], kind: str = "data") -> None:
        """:meth:`emit` of ``payloads[i]`` on ``links[i]`` — ``(src,
        dst)`` pairs — for every i, in order: a channel's members'
        cells in one call.  Unequal lengths raise before anything is
        queued."""
        n = len(links)
        if n != len(payloads):
            raise ValueError(f"emit_each got {n} links for "
                             f"{len(payloads)} payloads")
        index = self._link_index
        try:
            link_ids = [index[src][dst] for src, dst in links]
        except KeyError:
            link_ids = [self._link_id(src, dst) for src, dst in links]
        fields = [1] * (4 * n)  # every count is 1
        fields[0::4] = link_ids
        fields[1::4] = payloads
        fields[2::4] = [kind] * n
        self._queue += fields

    def emit_repeated(self, src: str, dst: str, payload: bytes,
                      n: int, kind: str = "chaff") -> None:
        """Queue ``n`` wire-identical cells sharing one payload
        reference — the constant-rate fill of a trunk link costs one
        queue entry regardless of the cell count."""
        if n > 0:
            try:
                link_id = self._link_index[src][dst]
            except KeyError:
                link_id = self._link_id(src, dst)
            self._queue += (link_id, payload, kind, n)
        elif n:
            raise ValueError("cannot emit a negative cell count")

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

    # -- the round drain and the run totals ------------------------------------

    def _drain_round(self, header_bytes: int) -> RoundTable:
        """Take the round's queue as its :class:`RoundTable` — a cell
        costs ``len(payload) + header_bytes`` wire bytes — and add it
        to the per-link totals and the carried-cell count.

        A round's *shape* is ``header_bytes`` and its rows' link ids,
        counts and payload lengths.  Constant-rate emission (I6)
        repeats the shape from round to round, so a round whose shape
        equals the last one's reuses that round's columns, ``order``
        and per-link deltas, and only this round's payloads and kinds
        are new.  The queue's columns are its stride slices, so the
        shape is three lists compared at C speed.  Any other round is
        built by :meth:`_build_round`."""
        queue, self._queue = self._queue, []
        if not queue:
            return RoundTable([], [], [], [], [], np.zeros(0, np.intp))
        link_ids, payloads, counts = queue[0::4], queue[1::4], queue[3::4]
        shape = (header_bytes, link_ids, counts, list(map(len, payloads)))
        last = self._last_round
        if last is None or last[0] != shape:
            last = self._last_round = (shape, *self._build_round(shape))
        _, table, cell_delta, byte_delta, cells = last
        self._link_cells += cell_delta
        self._link_bytes += byte_delta
        self._segments += len(link_ids)
        self.cells_carried += cells
        return table._replace(payloads=payloads, kinds=queue[2::4])

    def _build_round(self, shape):
        """A round of ``shape`` (see :meth:`_drain_round`) as its
        :class:`RoundTable` without payloads or kinds, its per-link
        cell and byte deltas (indexed by link id, as long as the
        totals) and its cell count.

        A stable sort of the rows on their link's first position in
        the round makes the table link-contiguous in first-emission
        order, each link's rows in emission order: the order the
        per-cell ``event`` plane transmits in."""
        header_bytes, link_ids, counts, sizes = shape
        n = len(link_ids)
        links = self._link_keys
        ids = np.fromiter(link_ids, np.intp, n)
        seen, first = np.unique(ids, return_index=True)
        position = np.empty(len(links), np.intp)
        position[seen] = first
        order = np.argsort(position[ids], kind="stable")
        count_col = np.fromiter(counts, np.int64, n)
        size_col = np.fromiter(sizes, np.int64, n)
        size_col += header_bytes
        grow = len(links) - len(self._link_cells)
        if grow:
            self._link_cells = np.concatenate(
                (self._link_cells, np.zeros(grow, np.int64)))
            self._link_bytes = np.concatenate(
                (self._link_bytes, np.zeros(grow, np.int64)))
        # Float weights are exact below 2**53 cells or bytes a link a round.
        cell_delta = np.bincount(ids, count_col, len(links)) \
            .astype(np.int64)
        byte_delta = np.bincount(ids, size_col * count_col, len(links)) \
            .astype(np.int64)
        table = RoundTable(keys=[links[i] for i in ids[order].tolist()],
                           sizes=size_col[order].tolist(),
                           counts=count_col[order].tolist(),
                           payloads=(), kinds=(), order=order)
        return table, cell_delta, byte_delta, int(count_col.sum())

    def _drain_link_totals(self) -> Dict[str, object]:
        """Hand over everything accumulated since the last call as
        the :meth:`finalize` report (``link_stats`` in link-id order),
        and start afresh."""
        cells, n_bytes = self._link_cells, self._link_bytes
        used = np.flatnonzero(cells)
        links = self._link_keys
        link_stats = dict(zip(
            [links[i] for i in used.tolist()],
            zip(cells[used].tolist(), n_bytes[used].tolist())))
        report = {
            "cells": int(cells.sum()),
            "bytes": int(n_bytes.sum()),
            "segments": self._segments,
            "link_stats": link_stats,
        }
        self._link_cells = np.zeros_like(cells)
        self._link_bytes = np.zeros_like(n_bytes)
        self._segments = 0
        return report
