"""UdpFabric: the wire plane carried by real loopback datagrams.

This is the ``"udp"`` implementation of the transport seam
(:mod:`repro.core.transport`): the round engine drives it with
exactly the :class:`~repro.simulation.roundsync.WireFabric` calls —
``emit`` / ``emit_repeated`` while computing a round, one
``flush_round`` at the barrier — but here every queued cell is framed
by :func:`repro.core.wire.encode_cell_frame` and physically
transmitted as a UDP datagram from its source node's asyncio endpoint
to its destination node's endpoint.  Addresses come from the
:mod:`repro.net.introducer`: every endpoint announces itself on
creation and the fabric resolves destinations with a real GETDIR
round-trip.

**The socket bridge.**  Taps must observe *received* traffic, not the
send queue.  Each receiving endpoint decodes its datagrams into
:class:`~repro.core.wire.CellFrame` records and hands them to a
:class:`RoundCollector`; once the round barrier completes, the
collector rebuilds the round's run table — rows ordered by the
``run`` coordinate each frame carries, one row per emission run, cell
counts from the distinct ``seq`` values that actually arrived — and
the fabric offers it to every tap through
:func:`~repro.netsim.taps.offer_round_runs` at the round's *virtual*
time (``round_index * interval``).  That is byte-for-byte the feeding
sequence the ``batch-v2`` plane performs, which is what makes wiretap
observations, herdscope metrics, and report rows identical across the
simulator and the sockets (DESIGN.md §14; gated by
``tests/test_net_equivalence.py``).

**The round barrier.**  UDP is lossy even on loopback (socket buffers
overflow).  ``flush_round`` therefore waits until every sent
``(run, seq)`` coordinate has been received, retransmitting the
missing frames on timeout, bounded by ``max_attempts``; a round that
cannot complete raises rather than silently diverging from the
simulator.  Loss, retransmissions, duplicates, and wall-clock send
time are recorded in :meth:`UdpFabric.net_report` — a host side
channel, never part of any determinism surface.

With ``processes=True`` the receive endpoints (and the collector)
live in a separate worker process (:mod:`repro.net.procs`), so every
datagram really crosses a process boundary; the per-round tables come
back over a pipe and feed the same taps in the same order.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.core.transport import CellTransport
from repro.core.wire import CellFrame, encode_cell_frame, \
    WireFormatError, decode_cell_frame
from repro.net import introducer as intro
from repro.netsim.observer import LinkObserver
from repro.netsim.packet import IP_UDP_HEADER_BYTES
from repro.netsim.taps import offer_round_runs
from repro.obs.perfclock import perf_now

#: Per-attempt round-barrier timeout (seconds of host time) and the
#: attempt bound before a round is declared lost.  Loopback rarely
#: needs more than one retransmission; the bound exists so a wedged
#: socket fails loudly instead of hanging CI.
DEFAULT_BARRIER_TIMEOUT_S = 0.25
DEFAULT_MAX_ATTEMPTS = 40

#: Datagrams sent between cooperative yields while flushing a round —
#: the sender lets the receiving endpoints drain their socket buffers
#: instead of overflowing them in one burst.
SEND_YIELD_EVERY = 64


class RoundCollector:
    """Receive-side state of one round: which ``(run, seq)``
    coordinates have landed, and the run table they rebuild.

    Armed once per round with the expected per-run cell counts (the
    sender's flow-control knowledge); everything else — endpoints,
    sizes, counts — is taken from the decoded frames themselves, so
    the tap bridge genuinely describes received traffic.
    """

    def __init__(self):
        self.round_index = -1
        self._expected: Dict[int, int] = {}
        #: run → ``[src, dst, size, seq_set]`` rebuilt from frames.
        self._rows: Dict[int, list] = {}
        self._received = 0
        self._total = 0
        self.duplicates = 0
        self.stray = 0
        self.malformed = 0
        #: Future the owning loop awaits on; resolved by
        #: :meth:`add` when the round completes.
        self.waiter: Optional["asyncio.Future"] = None

    def arm(self, round_index: int,
            expected: Dict[int, int]) -> None:
        """Reset for a new round expecting ``expected[run]`` cells
        per emission run."""
        self.round_index = round_index
        self._expected = dict(expected)
        self._rows = {}
        self._received = 0
        self._total = sum(self._expected.values())
        self.waiter = None

    @property
    def complete(self) -> bool:
        return self._received >= self._total

    def ingest(self, data: bytes) -> None:
        """Decode one received datagram and account it."""
        try:
            frame = decode_cell_frame(data)
        except WireFormatError:
            self.malformed += 1
            return
        self.add(frame)

    def add(self, frame: CellFrame) -> None:
        expected = self._expected.get(frame.run)
        if frame.round_index != self.round_index or \
                expected is None or frame.seq >= expected:
            self.stray += 1
            return
        row = self._rows.get(frame.run)
        if row is None:
            row = [frame.src, frame.dst,
                   len(frame.payload) + IP_UDP_HEADER_BYTES, set()]
            self._rows[frame.run] = row
        seqs = row[3]
        if frame.seq in seqs:
            self.duplicates += 1
            return
        seqs.add(frame.seq)
        self._received += 1
        if self._received >= self._total:
            waiter = self.waiter
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    def missing(self) -> List[Tuple[int, int]]:
        """Every ``(run, seq)`` not yet received, in canonical
        order — the sender's retransmission list."""
        out: List[Tuple[int, int]] = []
        for run in sorted(self._expected):
            row = self._rows.get(run)
            have = row[3] if row is not None else ()
            for seq in range(self._expected[run]):
                if seq not in have:
                    out.append((run, seq))
        return out

    def table_rows(self) -> List[Tuple[int, str, str, int, int]]:
        """The rebuilt run table as ``(run, src, dst, size, count)``
        rows in run order — what crosses the worker pipe in
        ``--processes`` mode and what :meth:`UdpFabric.flush_round`
        feeds the taps from."""
        return [(run, row[0], row[1], row[2], len(row[3]))
                for run, row in sorted(self._rows.items())]


class _NodeProtocol(asyncio.DatagramProtocol):
    """One node's receive endpoint: datagrams go straight to the
    shared collector."""

    def __init__(self, name: str, collector: RoundCollector):
        self.name = name
        self.collector = collector
        self.transport: Optional[
            asyncio.DatagramTransport] = None
        self.datagrams_received = 0

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.datagrams_received += 1
        self.collector.ingest(data)


class UdpFabric(CellTransport):
    """A zone's wire plane over real loopback UDP datagrams.

    Drop-in for :class:`~repro.simulation.roundsync.WireFabric` at
    the :class:`~repro.core.transport.CellTransport` seam:
    ``zone.attach_wire()`` on the ``asyncio`` plane assigns one of
    these, and every ``LiveZone.step`` flushes the round through real
    sockets.  ``seed`` is accepted for constructor symmetry; the
    fabric draws no randomness (retransmission is deterministic, and
    the only nondeterminism — host scheduling — is confined to the
    :meth:`net_report` side channel).
    """

    execution = "asyncio"
    wire_mode = "socket"
    transport = "udp"

    def __init__(self, *, seed: int = 0,
                 interval: float = 0.02,
                 observer: Optional[LinkObserver] = None,
                 processes: bool = False,
                 host: str = "127.0.0.1",
                 barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT_S,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        self.seed = seed
        self.interval = interval
        self.processes = bool(processes)
        self.host = host
        self.barrier_timeout = barrier_timeout
        self.max_attempts = max_attempts
        self.observer = observer if observer is not None \
            else LinkObserver()
        self.taps: List = [self.observer]
        self._pending: Dict[Tuple[str, str],
                            List[Tuple[bytes, str, int]]] = {}
        self.rounds_flushed = 0
        self.cells_carried = 0
        # Cumulative per-link wire totals ([cells, bytes] per
        # directed key), published by finalize() like the batch-v2
        # plane's.
        self._link_totals: Dict[Tuple[str, str], List[int]] = {}
        self._segments = 0
        self._finalized: Optional[Dict[str, object]] = None
        # -- socket state (lazy: first flush starts the network) --
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.introducer: Optional[intro.Introducer] = None
        self._endpoints: Dict[str, _NodeProtocol] = {}
        self._collector = RoundCollector()
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._seq = 0
        self._worker = None  # procs.WorkerHandle in --processes mode
        self._sender: Optional[_NodeProtocol] = None
        # -- the host side channel (never in determinism surfaces) --
        self._datagrams_sent = 0
        self._retransmits = 0
        self._barrier_attempts = 0
        self._wall_send_s = 0.0

    # -- the CellTransport surface ---------------------------------------------

    def emit(self, src: str, dst: str, payload: bytes,
             kind: str = "data") -> None:
        pending = self._pending
        entry = pending.get((src, dst))
        if entry is None:
            pending[(src, dst)] = [(payload, kind, 1)]
        else:
            entry.append((payload, kind, 1))

    def emit_repeated(self, src: str, dst: str, payload: bytes,
                      n: int, kind: str = "chaff") -> None:
        if n < 0:
            raise ValueError("cannot emit a negative cell count")
        if n:
            pending = self._pending
            entry = pending.get((src, dst))
            if entry is None:
                pending[(src, dst)] = [(payload, kind, n)]
            else:
                entry.append((payload, kind, n))

    def add_tap(self, tap) -> None:
        self.taps.append(tap)

    @property
    def events_processed(self) -> int:
        """The socket plane runs no virtual-event loop; its cost
        lives in :meth:`net_report`, not in heap events."""
        return 0

    def flush_round(self, round_index: int) -> None:
        """Transmit the round for real, wait for every datagram to
        land (retransmitting losses), and bridge the received run
        table into the taps at the round's virtual time."""
        # Flatten the queue into the canonical run table: one row per
        # emission run, rows in first-emission order — the global row
        # index is the frame's ``run`` coordinate.
        rows: List[Tuple[Tuple[str, str], bytes, str, int]] = []
        for key, runs in self._pending.items():
            for payload, kind, count in runs:
                rows.append((key, payload, kind, count))
        self._pending.clear()
        t = round_index * self.interval
        if rows:
            started = perf_now()
            self._ensure_started()
            names = sorted({name for (src, dst), _, _, _ in rows
                            for name in (src, dst)})
            self._ensure_endpoints(names)
            table = self._run_sync(self._transmit_round(
                round_index, rows))
            self._wall_send_s += perf_now() - started
        else:
            table = []
        keys = [(src, dst) for _, src, dst, _, _ in table]
        sizes = [size for _, _, _, size, _ in table]
        counts = [count for _, _, _, _, count in table]
        round_cells = 0
        totals = self._link_totals
        for key, size, count in zip(keys, sizes, counts):
            entry = totals.get(key)
            if entry is None:
                totals[key] = [count, size * count]
            else:
                entry[0] += count
                entry[1] += size * count
            round_cells += count
        self._segments += len(keys)
        for tap in self.taps:
            offer_round_runs(tap, t, keys, sizes, counts)
        self.cells_carried += round_cells
        self.rounds_flushed += 1

    def finalize(self) -> Optional[Dict[str, object]]:
        """Tear the network down (sockets, introducer, worker) and
        publish the merged wire totals; idempotent."""
        if self._finalized is not None:
            return self._finalized
        self._shutdown()
        cells = n_bytes = 0
        link_stats: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for key, (c, b) in self._link_totals.items():
            link_stats[key] = (c, b)
            cells += c
            n_bytes += b
        self._finalized = {
            "cells": cells,
            "bytes": n_bytes,
            "segments": self._segments,
            "link_stats": link_stats,
        }
        self._link_totals = {}
        return self._finalized

    def net_report(self) -> Dict[str, object]:
        """The host-network side channel: real-socket accounting and
        wall-clock latency.  Deliberately excluded from metrics,
        traces, observations, and every determinism key — two runs of
        the same seed agree on everything *except* this dict."""
        received = sum(ep.datagrams_received
                       for ep in self._endpoints.values())
        report: Dict[str, object] = {
            "transport": "udp",
            "processes": self.processes,
            "endpoints": len(self._endpoints),
            "datagrams_sent": self._datagrams_sent,
            "datagrams_received": received,
            "retransmits": self._retransmits,
            "barrier_attempts": self._barrier_attempts,
            "duplicates": self._collector.duplicates,
            "stray": self._collector.stray,
            "malformed": self._collector.malformed,
            "wall_send_seconds": self._wall_send_s,
        }
        if self._worker is not None:
            report.update(self._worker.stats)
        if self.introducer is not None:
            report["announcements"] = self.introducer.announcements
            report["directory_fetches"] = \
                self.introducer.directory_fetches
        return report

    # -- socket plumbing -------------------------------------------------------

    def _run_sync(self, coro):
        """Drive one coroutine to completion on the fabric's private
        loop (the synchronous facade over the async internals)."""
        return self._loop.run_until_complete(coro)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _ensure_started(self) -> None:
        if self._loop is not None:
            return
        self._loop = asyncio.new_event_loop()
        self.introducer = intro.Introducer(host=self.host)
        self._run_sync(self.introducer.start())
        if self.processes:
            from repro.net.procs import WorkerHandle
            self._worker = WorkerHandle(
                introducer_address=self.introducer.address,
                host=self.host,
                barrier_timeout=self.barrier_timeout)
            self._worker.start()
            self._sender = self._run_sync(
                self._open_endpoint("sender"))

    def _ensure_endpoints(self, names: List[str]) -> None:
        wanted = [n for n in names if n not in self._endpoints]
        if not wanted:
            return
        if self._worker is not None:
            self._run_sync(self._worker.open_endpoints(wanted))
            # Track names so net_report/endpoint counting stays
            # meaningful; receive counters live in the worker.
            for name in wanted:
                self._endpoints[name] = _NodeProtocol(
                    name, self._collector)
        else:
            self._run_sync(self._open_many(wanted))
        self._addresses = {}  # force a directory refresh

    async def _open_many(self, names: List[str]) -> None:
        for name in names:
            protocol = await self._open_endpoint(name)
            await intro.announce(
                self.introducer.address, self._next_seq(), name,
                self.host,
                protocol.transport.get_extra_info("sockname")[1])
            self._endpoints[name] = protocol

    async def _open_endpoint(self, name: str) -> _NodeProtocol:
        loop = asyncio.get_running_loop()
        _, protocol = await loop.create_datagram_endpoint(
            lambda: _NodeProtocol(name, self._collector),
            local_addr=(self.host, 0))
        return protocol

    async def _resolve(self, names: List[str]
                       ) -> Dict[str, Tuple[str, int]]:
        """Resolve node addresses with a real GETDIR round-trip,
        re-fetching (bounded) until every name has announced."""
        for _ in range(intro.DEFAULT_ATTEMPTS):
            missing = [n for n in names
                       if n not in self._addresses]
            if not missing:
                return self._addresses
            self._addresses = await intro.fetch_directory(
                self.introducer.address, self._next_seq())
        missing = [n for n in names if n not in self._addresses]
        raise intro.IntroducerUnreachable(
            f"nodes never announced: {', '.join(missing)}")

    async def _transmit_round(
            self, round_index: int,
            rows: List[Tuple[Tuple[str, str], bytes, str, int]],
    ) -> List[Tuple[int, str, str, int, int]]:
        """Send every cell of the round as a datagram, run the
        completion barrier (with retransmission), and return the
        received run table."""
        if self._worker is not None:
            return await self._transmit_round_procs(round_index,
                                                    rows)
        collector = self._collector
        collector.arm(round_index,
                      {run: count
                       for run, (_, _, _, count) in enumerate(rows)})
        directory = await self._resolve(
            sorted({dst for (_, dst), _, _, _ in rows}))
        await self._send_frames(
            round_index, rows,
            ((run, seq) for run, (_, _, _, count) in enumerate(rows)
             for seq in range(count)),
            directory)
        loop = asyncio.get_running_loop()
        for _ in range(self.max_attempts):
            if collector.complete:
                break
            self._barrier_attempts += 1
            waiter = loop.create_future()
            collector.waiter = waiter
            try:
                await asyncio.wait_for(waiter,
                                       self.barrier_timeout)
            except asyncio.TimeoutError:
                missing = collector.missing()
                self._retransmits += len(missing)
                await self._send_frames(round_index, rows,
                                        missing, directory)
            finally:
                collector.waiter = None
        if not collector.complete:
            raise RuntimeError(
                f"round {round_index}: "
                f"{len(collector.missing())} datagrams still "
                f"missing after {self.max_attempts} barrier "
                f"attempts")
        return collector.table_rows()

    async def _send_frames(self, round_index, rows, coordinates,
                           directory) -> None:
        """Encode and transmit the given ``(run, seq)`` coordinates,
        yielding to the loop periodically so receivers drain their
        socket buffers."""
        sent = 0
        for run, seq in coordinates:
            (src, dst), payload, kind, _ = rows[run]
            data = encode_cell_frame(CellFrame(
                round_index=round_index, run=run, seq=seq,
                kind=kind, src=src, dst=dst, payload=payload))
            sender = self._sender if self._sender is not None \
                else self._endpoints[src]
            sender.transport.sendto(data, directory[dst])
            self._datagrams_sent += 1
            sent += 1
            if sent % SEND_YIELD_EVERY == 0:
                await asyncio.sleep(0)

    async def _transmit_round_procs(
            self, round_index: int,
            rows: List[Tuple[Tuple[str, str], bytes, str, int]],
    ) -> List[Tuple[int, str, str, int, int]]:
        """The ``--processes`` variant: the collector lives in the
        worker; expected counts, barrier waits, and the rebuilt table
        travel over the control pipe while the datagrams travel over
        the real sockets."""
        worker = self._worker
        expected = {run: count
                    for run, (_, _, _, count) in enumerate(rows)}
        directory = await self._resolve(
            sorted({dst for (_, dst), _, _, _ in rows}))
        worker.expect(round_index, expected)
        await self._send_frames(
            round_index, rows,
            ((run, seq) for run, count in expected.items()
             for seq in range(count)),
            directory)
        for _ in range(self.max_attempts):
            self._barrier_attempts += 1
            table, missing = await worker.wait_round()
            if not missing:
                return table
            self._retransmits += len(missing)
            await self._send_frames(round_index, rows, missing,
                                    directory)
        raise RuntimeError(
            f"round {round_index}: {len(missing)} datagrams still "
            f"missing after {self.max_attempts} barrier attempts")

    def _shutdown(self) -> None:
        if self._loop is None:
            return
        if self._worker is not None:
            self._worker.close()
        for protocol in self._endpoints.values():
            if protocol.transport is not None:
                protocol.transport.close()
        if self._sender is not None and \
                self._sender.transport is not None:
            self._sender.transport.close()
        if self.introducer is not None:
            self.introducer.close()
        # One loop turn so the transport close callbacks run.
        self._run_sync(asyncio.sleep(0))
        self._loop.close()
        self._loop = None

    def __repr__(self) -> str:
        return (f"UdpFabric({self.rounds_flushed} rounds, "
                f"{self.cells_carried} cells, "
                f"{self._datagrams_sent} datagrams, "
                f"processes={self.processes})")
