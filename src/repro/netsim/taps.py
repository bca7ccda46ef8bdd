"""The public wire-tap protocol: how observers consume the wire plane.

Herd's adversary model is a passive tap on every link.  This module
makes the tap interface a documented public protocol, so consumers
(the attack suite, the bench tally, the ML-adversary suite) can
subscribe to round observations without touching private state.

A tap implements some prefix of three capability levels; every wire
plane dispatches to the *richest* method the tap provides, so a tap
trades fidelity for cost explicitly:

* ``record(time, cell, src, dst)`` — REQUIRED.  One call per cell;
  ``cell`` exposes at least ``size`` (wire-visible bytes).  The only
  level that sees cells individually, and the one the ``event``
  plane feeds.
* ``record_runs(time, src, dst, sizes, counts)`` — OPTIONAL.  One
  call per (link, round) with the *aggregate* wire image: parallel
  run-length arrays (``counts[i]`` wire-identical cells of
  ``sizes[i]`` bytes, runs in emission order).  O(1) calls, O(runs)
  data.
* ``record_round_runs(time, keys, sizes, counts)`` — OPTIONAL.  One
  call per *round* with the whole round's run table: parallel arrays
  where row ``i`` is a run of ``counts[i]`` wire-identical cells of
  ``sizes[i]`` bytes on the directed link ``keys[i] = (src, dst)``.
  Rows are grouped per link in first-emission order (exactly the
  per-link order ``record_runs`` would have seen).  An aggregate tap
  can reduce the table at C speed (``sum(counts)``); this is what
  keeps the ``batch-v2`` hot loop O(runs) with a small constant.
  The columns are plain lists and **read-only**: a steady round —
  one that repeats the last round's shape (I6) — hands back the
  previous round's lists, so a tap copies what it keeps and may
  reuse what it derived from the same lists (:class:`TallyTap`
  does).

The reference taps also define ``record_batch``, which no plane calls
any more; it stays only because the herdbench layer table names it.

Because constant-rate emission makes the wire image a pure function of
the clock (invariant I6), the levels describe the *same* stream at
different aggregation — :func:`offer_runs` / :func:`offer_round_runs`
guarantee every tap sees byte-identical information regardless of
which engine produced it (DESIGN.md §9, §13).

:class:`~repro.netsim.observer.LinkObserver` (re-exported here) is the
reference per-cell adversary tap; :class:`TallyTap` is the reference
aggregate tap.
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence, Tuple

from repro.netsim.observer import LinkObserver, Observation

__all__ = ["LinkObserver", "Observation", "TallyTap", "KindlessCell",
           "offer_runs", "offer_round_runs"]


class KindlessCell:
    """The minimal wire-visible cell handed to per-cell ``record``
    when only aggregate information exists: size and endpoints, no
    payload, kind, or circuit id (exactly what a real tap sees)."""

    __slots__ = ("size", "src", "dst")

    def __init__(self, size: int, src: str, dst: str):
        self.size = size
        self.src = src
        self.dst = dst


class TallyTap:
    """The reference aggregate tap: global cell/byte totals with O(1)
    work per (link, round) under every engine.  Subclass and extend
    for richer aggregates (per-link histograms, windowed rates)."""

    def __init__(self):
        self.cells = 0
        self.bytes = 0
        #: The ``sizes`` and ``counts`` lists last summed by
        #: :meth:`record_round_runs`, and their two sums.
        self._summed: Tuple = (None, None, 0, 0)

    def record(self, time: float, cell, src: str, dst: str) -> None:
        self.cells += 1
        self.bytes += cell.size

    def record_batch(self, time: float, batch, src: str,
                     dst: str) -> None:
        self.cells += len(batch)
        self.bytes += batch.total_bytes()

    def record_runs(self, time: float, src: str, dst: str,
                    sizes: Sequence[int],
                    counts: Sequence[int]) -> None:
        total_cells = 0
        total_bytes = 0
        for size, count in zip(sizes, counts):
            total_cells += count
            total_bytes += size * count
        self.cells += total_cells
        self.bytes += total_bytes

    def record_round_runs(self, time: float,
                          keys: Sequence[Tuple[str, str]],
                          sizes: Sequence[int],
                          counts: Sequence[int]) -> None:
        last_sizes, last_counts, cells, n_bytes = self._summed
        if sizes is not last_sizes or counts is not last_counts:
            cells, n_bytes = sum(counts), sum(map(mul, sizes, counts))
            self._summed = (sizes, counts, cells, n_bytes)
        self.cells += cells
        self.bytes += n_bytes


def offer_runs(tap, time: float, src: str, dst: str,
               sizes: Sequence[int], counts: Sequence[int],
               kinds: Optional[Sequence[str]] = None) -> None:
    """Offer one (link, round) aggregate wire image to a tap at its
    richest capability.

    Preference order: ``record_runs`` (O(runs)); else per-cell
    ``record`` with :class:`KindlessCell` views, expanding runs in
    emission order — byte-identical to what a per-cell engine would
    have offered."""
    record_runs = getattr(tap, "record_runs", None)
    if record_runs is not None:
        record_runs(time, src, dst, sizes, counts)
        return
    record = tap.record
    for size, count in zip(sizes, counts):
        cell = KindlessCell(size, src, dst)
        for _ in range(count):
            record(time, cell, src, dst)


def offer_round_runs(tap, time: float,
                     keys: Sequence[Tuple[str, str]],
                     sizes: Sequence[int],
                     counts: Sequence[int]) -> None:
    """Offer one *round's* run table to a tap at its richest
    capability.

    Preference order: ``record_round_runs`` (one call, O(runs) data);
    else the table is regrouped per directed link — all of a link's
    runs contiguous, links in first-emission order, exactly the
    grouping the per-link engines produce — and offered through
    :func:`offer_runs` (which itself falls back to per-cell
    ``record``).  Rows in ``keys``/``sizes``/``counts`` must already
    be link-contiguous in that order."""
    record_round_runs = getattr(tap, "record_round_runs", None)
    if record_round_runs is not None:
        record_round_runs(time, keys, sizes, counts)
        return
    grouped: "dict" = {}
    for key, size, count in zip(keys, sizes, counts):
        entry = grouped.get(key)
        if entry is None:
            grouped[key] = ([size], [count])
        else:
            entry[0].append(size)
            entry[1].append(count)
    for (src, dst), (link_sizes, link_counts) in grouped.items():
        offer_runs(tap, time, src, dst, link_sizes, link_counts)
