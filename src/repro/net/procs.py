"""The ``--processes`` variant of the UDP plane: receive endpoints
hosted in a separate worker process.

In-process loopback datagrams already cross the kernel, but sender
and receiver still share one Python interpreter and one GIL.  With
``processes=True`` the :class:`~repro.net.transport.UdpFabric` forks
one worker that owns its own asyncio loop, all receive endpoints, and
the :class:`~repro.net.transport.RoundCollector`; every cell datagram
then genuinely travels between two processes.

The split of channels:

* **UDP** carries everything a real deployment would put on the
  wire: cell frames (main → worker sockets) and introducer
  announcements (worker → the introducer living on the fabric's
  loop).
* **A pipe** carries what a real deployment would not need: the
  per-round flow-control handshake.  The fabric sends ``("expect",
  round, {run: count})`` then ``("wait",)``; the worker runs its loop
  until the collector completes (or the barrier timeout fires) and
  replies ``("round", round, table_rows, missing)``.  A non-empty
  ``missing`` list makes the fabric retransmit exactly those
  ``(run, seq)`` frames and wait again — the same bounded recovery
  the in-process barrier performs.

The worker's command loop is synchronous (blocking pipe reads happen
*between* ``run_until_complete`` calls, never inside a coroutine —
herdlint HL102); datagrams arriving while no command is being served
simply sit in the kernel socket buffers until the next ``wait`` runs
the loop.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from typing import Dict, List, Tuple

#: Worker-side safety timeout (seconds) for one ``wait`` command when
#: the fabric passes none.
DEFAULT_WAIT_TIMEOUT_S = 0.25


class WorkerHandle:
    """The fabric's end of the worker: lifecycle plus the per-round
    control protocol.

    The receive side is *async*: the fabric's loop also hosts the
    introducer, which must keep answering the worker's UDP
    announcements while the fabric waits on the pipe — so waiting is
    a poll-and-yield loop, never a blocking ``Connection.recv``
    inside a coroutine."""

    def __init__(self, *, introducer_address: Tuple[str, int],
                 host: str = "127.0.0.1",
                 barrier_timeout: float = DEFAULT_WAIT_TIMEOUT_S):
        self.introducer_address = introducer_address
        self.host = host
        self.barrier_timeout = barrier_timeout
        self._conn = None
        self._process = None
        #: Receive-side counters mirrored back at :meth:`close`
        #: (merged into ``UdpFabric.net_report``).
        self.stats: Dict[str, object] = {}

    def start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=_worker_main,
            args=(child, self.introducer_address, self.host,
                  self.barrier_timeout),
            daemon=True)
        self._process.start()
        child.close()

    async def _recv(self):
        """Receive one pipe message without stalling the loop: the
        introducer (and any in-flight datagram work) keeps running
        while the worker prepares its reply."""
        conn = self._conn
        while not conn.poll():
            await asyncio.sleep(0.001)
        return conn.recv()

    async def open_endpoints(self,
                             names: List[str]) -> Dict[str, int]:
        """Have the worker bind one receive socket per name and
        announce each to the introducer; returns name → port."""
        self._conn.send(("open", list(names)))
        kind, ports = await self._recv()
        if kind != "ports":
            raise RuntimeError(
                f"worker protocol error: expected ports, got "
                f"{kind!r}")
        return ports

    def expect(self, round_index: int,
               expected: Dict[int, int]) -> None:
        """Arm the worker's collector for one round."""
        self._conn.send(("expect", round_index, expected))
        self._conn.send(("wait",))

    async def wait_round(self) -> Tuple[
            List[Tuple[int, str, str, int, int]],
            List[Tuple[int, int]]]:
        """Collect one barrier attempt's result: the run table so
        far and the still-missing ``(run, seq)`` list (empty =
        round complete)."""
        kind, _round_index, table, missing = await self._recv()
        if kind != "round":
            raise RuntimeError(
                f"worker protocol error: expected round, got "
                f"{kind!r}")
        if missing:
            # Another attempt: the fabric retransmits, then waits.
            self._conn.send(("wait",))
        return table, missing

    def close(self) -> None:
        if self._conn is None:
            return
        try:
            self._conn.send(("close",))
            kind, stats = self._conn.recv()
            if kind == "stats":
                self.stats = stats
        except (EOFError, BrokenPipeError, OSError):
            pass
        self._conn.close()
        self._conn = None
        if self._process is not None:
            self._process.join(timeout=5)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5)
            self._process = None


def _worker_main(conn, introducer_address: Tuple[str, int],
                 host: str, barrier_timeout: float) -> None:
    """Worker entry point: a synchronous command loop around a
    private asyncio loop that owns every receive endpoint."""
    # Imported here (post-fork) to keep the module importable
    # without the transport machinery.
    from repro.net import introducer as intro
    from repro.net.transport import RoundCollector, _NodeProtocol

    loop = asyncio.new_event_loop()
    collector = RoundCollector()
    endpoints: Dict[str, _NodeProtocol] = {}
    seq_state = [0]
    round_index = [-1]

    def next_seq() -> int:
        seq_state[0] += 1
        return seq_state[0]

    async def open_endpoints(names: List[str]) -> Dict[str, int]:
        ports: Dict[str, int] = {}
        for name in names:
            _, protocol = await loop.create_datagram_endpoint(
                lambda: _NodeProtocol(name, collector),
                local_addr=(host, 0))
            port = protocol.transport.get_extra_info("sockname")[1]
            await intro.announce(introducer_address, next_seq(),
                                 name, host, port)
            endpoints[name] = protocol
            ports[name] = port
        return ports

    async def wait_complete() -> None:
        if collector.complete:
            return
        waiter = loop.create_future()
        collector.waiter = waiter
        try:
            await asyncio.wait_for(waiter, barrier_timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            collector.waiter = None

    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message[0]
            if op == "open":
                ports = loop.run_until_complete(
                    open_endpoints(message[1]))
                conn.send(("ports", ports))
            elif op == "expect":
                round_index[0] = message[1]
                collector.arm(message[1], message[2])
            elif op == "wait":
                loop.run_until_complete(wait_complete())
                conn.send(("round", round_index[0],
                           collector.table_rows(),
                           collector.missing()))
            elif op == "close":
                conn.send(("stats", {
                    "worker_datagrams_received": sum(
                        ep.datagrams_received
                        for ep in endpoints.values()),
                    "worker_duplicates": collector.duplicates,
                    "worker_stray": collector.stray,
                    "worker_malformed": collector.malformed,
                }))
                break
            else:
                raise RuntimeError(
                    f"unknown worker command {op!r}")
    finally:
        for protocol in endpoints.values():
            if protocol.transport is not None:
                protocol.transport.close()
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()
        conn.close()
