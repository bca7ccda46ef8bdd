"""UdpFabric: the wire plane carried by real loopback datagrams.

This is the ``"udp"`` implementation of the transport seam
(:mod:`repro.core.transport`): the round engine drives it with
exactly the :class:`~repro.simulation.roundsync.WireFabric` calls —
``emit`` / ``emit_repeated`` (the round queue
:class:`~repro.core.transport.CellTransport` owns) while computing a
round, one ``flush_round`` at the barrier — but here every queued
cell is framed by :func:`repro.core.wire.encode_cell_frame` and physically
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
missing frames on timeout, bounded by ``BARRIER_MAX_ATTEMPTS``; a
round that cannot complete raises rather than silently diverging
from the simulator.  Loss, retransmissions, duplicates, and
wall-clock send time are recorded in :meth:`UdpFabric.net_report` —
a host side channel, never part of any determinism surface.

**Teardown.**  ``finalize`` closes every socket and publishes the
wire totals accumulated since its last call; it is re-entrant like
the simulator planes' — a round flushed afterwards reopens the
network and reaches the stats at the next call.
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
BARRIER_TIMEOUT_S = 0.25
BARRIER_MAX_ATTEMPTS = 40

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
        #: Every datagram handed to :meth:`ingest`, across rounds.
        self.datagrams = 0
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
        self.datagrams += 1
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
        rows in run order — what :meth:`UdpFabric.flush_round` feeds
        the taps from."""
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

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
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
    :meth:`net_report` side channel).  Every endpoint binds the
    introducer's loopback host.
    """

    def __init__(self, *, seed: int = 0,
                 interval: float = 0.02,
                 observer: Optional[LinkObserver] = None):
        super().__init__()
        self.seed = seed
        self.interval = interval
        self.observer = observer if observer is not None \
            else LinkObserver()
        self.taps: List = [self.observer]
        # -- socket state (lazy: a flush with cells starts the
        # network, finalize() tears it down) --
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.introducer: Optional[intro.Introducer] = None
        self._endpoints: Dict[str, _NodeProtocol] = {}
        self._collector = RoundCollector()
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._seq = 0
        # -- the host side channel (never in determinism surfaces) --
        self._endpoints_opened = 0
        self._announcements = 0
        self._directory_fetches = 0
        self._datagrams_sent = 0
        self._retransmits = 0
        self._barrier_attempts = 0
        self._wall_send_s = 0.0

    # -- the CellTransport surface ---------------------------------------------

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
        # The drained table is the canonical run table: its row index
        # is the frame's ``run`` coordinate.  The barrier below makes
        # every sent coordinate arrive, so the totals the drain adds
        # are the received ones.
        rows = self._drain_round(IP_UDP_HEADER_BYTES).runs()
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
        for tap in self.taps:
            offer_round_runs(tap, t, keys, sizes, counts)
        self.rounds_flushed += 1

    def finalize(self) -> Dict[str, object]:
        """Tear the network down (sockets, introducer) and publish the
        wire totals accumulated since the last call; re-entrant."""
        self._shutdown()
        return self._drain_link_totals()

    def net_report(self) -> Dict[str, object]:
        """The host-network side channel: real-socket accounting and
        wall-clock latency.  Deliberately excluded from metrics,
        traces, observations, and every determinism key — two runs of
        the same seed agree on everything *except* this dict."""
        announcements = self._announcements
        directory_fetches = self._directory_fetches
        if self.introducer is not None:
            announcements += self.introducer.announcements
            directory_fetches += self.introducer.directory_fetches
        return {
            "transport": "udp",
            "endpoints": self._endpoints_opened,
            "datagrams_sent": self._datagrams_sent,
            "datagrams_received": self._collector.datagrams,
            "retransmits": self._retransmits,
            "barrier_attempts": self._barrier_attempts,
            "duplicates": self._collector.duplicates,
            "stray": self._collector.stray,
            "malformed": self._collector.malformed,
            "wall_send_seconds": self._wall_send_s,
            "announcements": announcements,
            "directory_fetches": directory_fetches,
        }

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
        self.introducer = intro.Introducer()
        self._run_sync(self.introducer.start())

    def _ensure_endpoints(self, names: List[str]) -> None:
        wanted = [n for n in names if n not in self._endpoints]
        if not wanted:
            return
        self._run_sync(self._open_many(wanted))
        self._addresses = {}  # force a directory refresh

    async def _open_many(self, names: List[str]) -> None:
        loop = asyncio.get_running_loop()
        for name in names:
            _, protocol = await loop.create_datagram_endpoint(
                lambda n=name: _NodeProtocol(n, self._collector),
                local_addr=(self.introducer.host, 0))
            await intro.announce(
                self.introducer.address, self._next_seq(), name,
                self.introducer.host,
                protocol.transport.get_extra_info("sockname")[1])
            self._endpoints[name] = protocol
            self._endpoints_opened += 1

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
        for _ in range(BARRIER_MAX_ATTEMPTS):
            if collector.complete:
                break
            self._barrier_attempts += 1
            waiter = loop.create_future()
            collector.waiter = waiter
            try:
                await asyncio.wait_for(waiter, BARRIER_TIMEOUT_S)
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
                f"missing after {BARRIER_MAX_ATTEMPTS} barrier "
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
            self._endpoints[src].transport.sendto(data,
                                                  directory[dst])
            self._datagrams_sent += 1
            sent += 1
            if sent % SEND_YIELD_EVERY == 0:
                await asyncio.sleep(0)

    def _shutdown(self) -> None:
        """Close every socket and the loop, and forget them: the next
        flush with cells starts the network afresh."""
        if self._loop is None:
            return
        for protocol in self._endpoints.values():
            if protocol.transport is not None:
                protocol.transport.close()
        if self.introducer is not None:
            self._announcements += self.introducer.announcements
            self._directory_fetches += \
                self.introducer.directory_fetches
            self.introducer.close()
        # One loop turn so the transport close callbacks run.
        self._run_sync(asyncio.sleep(0))
        self._loop.close()
        self._loop = None
        self.introducer = None
        self._endpoints = {}
        self._addresses = {}

    def __repr__(self) -> str:
        return (f"UdpFabric({self.rounds_flushed} rounds, "
                f"{self.cells_carried} cells, "
                f"{self._datagrams_sent} datagrams)")
