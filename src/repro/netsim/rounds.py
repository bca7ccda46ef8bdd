"""Round-synchronous batch execution: cell vectors instead of events.

Herd's data plane is intrinsically round-based (§3.4, §3.6): clients,
SPs, and mixes emit cells at a constant rate every codec-frame round,
so a per-cell discrete-event schedule — one heap event plus one
:class:`~repro.netsim.packet.Packet` per cell — burns O(cells) Python
objects for a schedule that is a pure function of the clock.  This
module provides the batched alternative:

* :class:`CellBatch` — a struct-of-arrays carrier for one round's cells
  on one directed link: parallel ``sizes`` / ``kinds`` / ``circuit_ids``
  / ``payloads`` lists, no per-cell objects.  Payload entries are
  *references* to the ciphertext bytes, never copies.
* :class:`RoundScheduler` — a round clock over the
  :class:`~repro.netsim.engine.EventLoop`: one heap event per round,
  firing registered handlers in order, instead of one event per cell.

Links accept a whole batch via :meth:`~repro.netsim.link.Link
.transmit_batch`; observers that implement ``record_batch`` see the
vector directly, and the adversary :class:`~repro.netsim.observer
.LinkObserver` records exactly the same (time, size, src, dst) stream
it would have recorded per packet — constant-rate emission means the
wire image is a function of the clock, not of the execution engine
(the observational-equivalence contract, DESIGN.md §9).

The per-packet API remains the compatible path: :class:`CellBatch
.packets` and :meth:`CellBatch.from_packets` adapt in both directions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.netsim.packet import IP_UDP_HEADER_BYTES, Packet


class CellView:
    """A lightweight read-only view of one cell inside a
    :class:`CellBatch` — duck-compatible with the fields per-packet
    observers read (``size``, ``kind``, ``circuit_id``, ``payload``)
    without materializing a :class:`~repro.netsim.packet.Packet`."""

    __slots__ = ("payload", "size", "kind", "circuit_id", "src", "dst")

    def __init__(self, payload: bytes, size: int, kind: str,
                 circuit_id: Optional[int], src: str, dst: str):
        self.payload = payload
        self.size = size
        self.kind = kind
        self.circuit_id = circuit_id
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:
        return (f"CellView({self.src}->{self.dst} {self.kind} "
                f"{self.size}B)")


class CellBatch:
    """One round's cells on one directed link, struct-of-arrays.

    Parameters
    ----------
    src, dst:
        The directed link the batch rides (endpoint names).
    round_index:
        The data-plane round the batch belongs to (-1 if unknown).

    The parallel lists ``sizes`` (on-the-wire bytes, payload plus
    IP/UDP headers), ``kinds`` (instrumentation labels, invisible to
    the adversary model), ``circuit_ids``, and ``payloads`` (references
    to the ciphertext) hold one entry per cell, in emission order —
    the order a per-packet engine would have transmitted them.
    """

    __slots__ = ("src", "dst", "round_index", "sizes", "kinds",
                 "circuit_ids", "payloads")

    def __init__(self, src: str, dst: str, round_index: int = -1):
        self.src = src
        self.dst = dst
        self.round_index = round_index
        self.sizes: List[int] = []
        self.kinds: List[str] = []
        self.circuit_ids: List[Optional[int]] = []
        self.payloads: List[bytes] = []

    def append(self, payload: bytes, kind: str = "data",
               circuit_id: Optional[int] = None) -> None:
        """Add one cell (payload by reference)."""
        self.sizes.append(len(payload) + IP_UDP_HEADER_BYTES)
        self.kinds.append(kind)
        self.circuit_ids.append(circuit_id)
        self.payloads.append(payload)

    def append_repeated(self, payload: bytes, n: int,
                        kind: str = "chaff",
                        circuit_id: Optional[int] = None) -> None:
        """Add ``n`` identical cells sharing one payload reference —
        the chaff-fill case: n wire-identical cells, one buffer."""
        if n < 0:
            raise ValueError("cannot append a negative cell count")
        size = len(payload) + IP_UDP_HEADER_BYTES
        self.sizes.extend([size] * n)
        self.kinds.extend([kind] * n)
        self.circuit_ids.extend([circuit_id] * n)
        self.payloads.extend([payload] * n)

    def __len__(self) -> int:
        return len(self.sizes)

    def total_bytes(self) -> int:
        """On-the-wire bytes of the whole batch."""
        return sum(self.sizes)

    def cells(self) -> Iterator[CellView]:
        """Iterate the batch as lightweight per-cell views (the
        fallback for observers without ``record_batch``)."""
        for payload, size, kind, circuit_id in zip(
                self.payloads, self.sizes, self.kinds,
                self.circuit_ids):
            yield CellView(payload, size, kind, circuit_id,
                           self.src, self.dst)

    # -- per-packet adapters ---------------------------------------------------

    def packets(self, loop=None) -> List[Packet]:
        """Materialize the batch as per-packet objects (the thin
        adapter for legacy per-packet receivers).  Packet ids are
        stamped from ``loop`` when given, so ids stay loop-local and
        deterministic."""
        out = []
        for payload, kind, circuit_id in zip(self.payloads, self.kinds,
                                             self.circuit_ids):
            packet = Packet(payload, self.src, self.dst, kind=kind,
                            circuit_id=circuit_id)
            if loop is not None:
                packet.packet_id = loop.next_packet_id()
            out.append(packet)
        return out

    @classmethod
    def from_packets(cls, packets: Sequence[Packet], src: str,
                     dst: str, round_index: int = -1) -> "CellBatch":
        """Wrap per-packet objects into a batch (payloads by ref)."""
        batch = cls(src, dst, round_index)
        for packet in packets:
            batch.append(packet.payload, kind=packet.kind,
                         circuit_id=packet.circuit_id)
        return batch

    def __repr__(self) -> str:
        return (f"CellBatch({self.src}->{self.dst} r{self.round_index} "
                f"{len(self)} cells, {self.total_bytes()}B)")


class RoundScheduler:
    """A round clock over the event loop: one event per round.

    Registered handlers fire in registration order inside a single
    loop event at ``start + round_index * interval``; everything a
    round emits (whole :class:`CellBatch` vectors through
    :meth:`~repro.netsim.link.Link.transmit_batch`) happens inside
    that one event, so the heap holds O(rounds) entries instead of
    O(cells).

    The scheduler supports two driving styles:

    * **push**: :meth:`run_rounds` schedules and executes ``n``
      consecutive rounds on the owned loop;
    * **external stepping**: :meth:`run_round` executes exactly one
      round (used by round-driven simulations that interleave their
      own synchronous work between rounds).
    """

    def __init__(self, loop, interval: float, start: float = 0.0):
        if interval <= 0:
            raise ValueError("round interval must be positive")
        if start < 0:
            raise ValueError("round start must be non-negative")
        self.loop = loop
        self.interval = interval
        self.start = start
        self.rounds_run = 0
        self._handlers = []

    def on_round(self, handler) -> None:
        """Register ``handler(round_index)`` to fire every round."""
        self._handlers.append(handler)

    def time_of(self, round_index: int) -> float:
        """Virtual time of a round's tick."""
        return self.start + round_index * self.interval

    def _fire(self, round_index: int) -> None:
        for handler in self._handlers:
            handler(round_index)
        self.rounds_run += 1

    def run_round(self, round_index: Optional[int] = None) -> int:
        """Execute one round (default: the next one) as a single loop
        event, running the loop up to the round's tick.  Returns the
        round index executed."""
        r = self.rounds_run if round_index is None else round_index
        t = self.time_of(r)
        self.loop.schedule_at(t, lambda: self._fire(r))
        self.loop.run(until=t)
        return r

    def run_rounds(self, n: int) -> None:
        """Execute ``n`` consecutive rounds."""
        for _ in range(n):
            self.run_round()
