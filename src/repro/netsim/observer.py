"""The adversary's view of a link: time series of encrypted packets.

Herd's threat model (§3): "The adversary is able to observe the time
series of encrypted traffic on all Herd links as part of a global,
passive traffic analysis attack."  A :class:`LinkObserver` records
exactly that — (timestamp, size, src, dst) — and deliberately has no
access to payload bytes, packet ``kind``, or circuit IDs.

The attack implementations in :mod:`repro.attacks` consume these
observations; nothing else about the simulation leaks to them, so an
attack that succeeds here would succeed against the real wire image.

The log is kept by *burst*, not by cell.  Herd's links are chaffed to a
constant rate, so the sightings of one instant — a round, on the
round-synchronous engines — repeat from round to round: a burst is its
timestamp plus a run-length *shape* ``(links, sizes, counts)``, and a
burst whose shape equals the previous one's shares it.  A steady round
then costs the log a few machine words however many links are tapped
(it used to cost ~150 bytes per cell, which at a real-time round rate
is megabytes per second of run); :class:`Observation` objects are made
when the log is read.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple


@dataclass(frozen=True)
class Observation:
    """One packet sighting on a tapped link."""

    time: float
    size: int
    src: str
    dst: str


#: A burst's shape: parallel run-length columns — ``counts[i]``
#: sightings of ``sizes[i]`` bytes on the directed link ``links[i]``.
_Shape = Tuple[Tuple[Tuple[str, str], ...], Tuple[int, ...],
               Tuple[int, ...]]


class ObservationLog(Sequence):
    """The sightings of one observer, in order: a read-only sequence
    of :class:`Observation` (``len``, indexing, slicing, iteration,
    ``==`` against a list) over the burst store described in the
    module docstring."""

    def __init__(self) -> None:
        self._bursts: List[Tuple[float, _Shape]] = []
        self._count = 0
        # The burst being recorded (closed when the time moves on, or
        # when the log is read).
        self._open_time = 0.0
        self._open: Tuple[list, list, list] = ([], [], [])

    def add(self, time: float, size: int, src: str, dst: str,
            count: int = 1) -> None:
        """Record ``count`` sightings of ``size`` bytes on src → dst."""
        if time != self._open_time:
            self._close()
            self._open_time = time
        links, sizes, counts = self._open
        links.append((src, dst))
        sizes.append(size)
        counts.append(count)
        self._count += count

    def add_runs(self, time: float, links, sizes, counts) -> None:
        """Record a table of runs — ``counts[i]`` sightings of
        ``sizes[i]`` bytes on the directed link ``links[i]`` — as
        :meth:`add` row by row would."""
        if time != self._open_time:
            self._close()
            self._open_time = time
        open_links, open_sizes, open_counts = self._open
        open_links.extend(links)
        open_sizes.extend(sizes)
        open_counts.extend(counts)
        self._count += sum(counts)

    def _close(self) -> None:
        links, sizes, counts = self._open
        if not links:
            return
        shape = (tuple(links), tuple(sizes), tuple(counts))
        if self._bursts and self._bursts[-1][1] == shape:
            shape = self._bursts[-1][1]
        self._bursts.append((self._open_time, shape))
        self._open = ([], [], [])

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Observation]:
        self._close()
        for time, (links, sizes, counts) in self._bursts:
            for (src, dst), size, count in zip(links, sizes, counts):
                yield from itertools.repeat(
                    Observation(time=time, size=size, src=src, dst=dst),
                    count)

    def __getitem__(self, index):
        # Never through a full list: a long run's log is read a prefix
        # at a time, and materialised it is ~150 bytes per cell.
        if isinstance(index, slice):
            start, stop, step = index.indices(self._count)
            if step < 0:
                return list(self)[index]
            return list(itertools.islice(self, start, stop, step))
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("observation index out of range")
        return next(itertools.islice(self, index, None))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ObservationLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ObservationLog({list(self)!r})"


class LinkObserver:
    """Collects packet sightings, optionally for many links at once.

    The same observer instance can be attached to every link in a
    deployment to model a *global* passive adversary, or to a subset to
    model a local one.
    """

    def __init__(self, name: str = "adversary"):
        self.name = name
        self.observations = ObservationLog()

    def record(self, time: float, packet, src: str, dst: str) -> None:
        """Called by :class:`~repro.netsim.link.Link` on every
        transmission attempt.  Only wire-visible fields are stored."""
        self.observations.add(time, packet.size, src, dst)

    def record_batch(self, time: float, batch, src: str,
                     dst: str) -> None:
        """Takes a whole round's cell vector (no wire plane calls
        this any more; it is kept for the herdbench layer table,
        which names it).  One sighting is stored per
        cell, in emission order — byte-identical to what per-packet
        transmission of the same cells would have recorded (the
        observational-equivalence contract, DESIGN.md §9)."""
        add = self.observations.add
        for size in batch.sizes:
            add(time, size, src, dst)

    def record_runs(self, time: float, src: str, dst: str,
                    sizes, counts) -> None:
        """Called by the vectorized wire plane (``batch-v2``) with one
        (link, round) aggregate image: parallel run-length arrays.
        The adversary sees per-cell sightings — ``counts[i]`` identical
        ones per run, in emission order, byte-identical to the per-cell
        engines' streams (the observational-equivalence contract,
        DESIGN.md §9/§13); the log keeps them as runs."""
        add = self.observations.add
        for size, count in zip(sizes, counts):
            add(time, size, src, dst, count)

    def record_round_runs(self, time: float, keys, sizes,
                          counts) -> None:
        """Called by the vectorized wire plane with a whole round's
        run table (row ``i``: ``counts[i]`` identical sightings of
        ``sizes[i]`` bytes on the directed link ``keys[i]``, links
        contiguous in first-emission order): the stream
        :meth:`record_runs` records from the same rows link by link,
        taken whole."""
        self.observations.add_runs(time, keys, sizes, counts)

    def time_series(self, src: str, dst: str,
                    bin_width: float) -> Dict[int, int]:
        """Bytes-per-bin histogram for one directed link — the raw
        material of a correlation attack."""
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        series: Dict[int, int] = {}
        for obs in self.observations:
            if obs.src == src and obs.dst == dst:
                idx = int(obs.time / bin_width)
                series[idx] = series.get(idx, 0) + obs.size
        return series

    def directed_pairs(self) -> Iterable[Tuple[str, str]]:
        """All (src, dst) pairs with at least one sighting."""
        return sorted({(o.src, o.dst) for o in self.observations})

    def rate_changes(self, src: str, dst: str, bin_width: float,
                     threshold: float = 0.0) -> List[int]:
        """Bins where the observed rate changed by more than
        ``threshold`` bytes relative to the previous bin.  Constant-rate
        chaffed links produce an empty (or loss-noise-only) list."""
        series = self.time_series(src, dst, bin_width)
        if not series:
            return []
        changes = []
        lo, hi = min(series), max(series)
        prev = series.get(lo, 0)
        for idx in range(lo + 1, hi + 1):
            cur = series.get(idx, 0)
            if abs(cur - prev) > threshold:
                changes.append(idx)
            prev = cur
        return changes

    def clear(self) -> None:
        self.observations = ObservationLog()
