"""The ExecutionPlane registry: execution engines resolved by name.

Before this module, every layer that accepted an ``execution=`` knob
(:class:`repro.api.SimConfig`, :class:`repro.simulation.live.LiveZone`,
:class:`repro.simulation.roundsync.WireFabric`, the scenario
engine) carried its own ``("event", "batch")`` tuple and its
own if/elif validation — adding an engine meant touching five copies.
This registry is the single point of truth: an execution plane is
*listed* once, and every consumer resolves the name through
:func:`resolve`.

A plane is described by two orthogonal modes:

* ``zone_mode`` — how the protocol round runs inside a
  :class:`~repro.simulation.live.LiveZone`: ``"event"`` (per-channel
  calls) or ``"batch"`` (the round-synchronous core entry points
  ``SuperPeer.process_round`` / ``MixCallManager.process_round``).
  The protocol outputs are byte-identical either way (DESIGN.md §9).
* ``wire_mode`` — how the :class:`~repro.simulation.roundsync
  .WireFabric` materializes the wire image: ``"event"`` (one packet +
  heap event per cell), ``"batch"`` (one :class:`~repro.netsim.rounds
  .CellBatch` per link per round), or ``"vector"`` (one run table
  per round with aggregate chaff accounting — O(runs) per round,
  DESIGN.md §13).

A third orthogonal axis, ``transport``, says what physically carries
the wire image: ``"sim"`` (the in-memory :class:`~repro.simulation
.roundsync.WireFabric` over netsim links) or ``"udp"`` (the
real-network plane: cells framed by :mod:`repro.core.wire` ride real
UDP datagrams between per-node ``asyncio`` endpoints, bootstrapped by
the :mod:`repro.net.introducer`).  Protocol code never branches on the
transport — :func:`create_wire_fabric` is the single seam where a
resolved plane becomes a concrete :class:`~repro.core.transport
.CellTransport`.

Built-in planes: ``"event"``, ``"batch"``, ``"batch-v2"`` (the
vectorized plane), and ``"asyncio"`` (same protocol, real
UDP sockets over loopback — ROADMAP item 3, DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

ZONE_MODES = ("event", "batch")
WIRE_MODES = ("event", "batch", "vector", "socket")
TRANSPORTS = ("sim", "udp")


@dataclass(frozen=True)
class ExecutionPlane:
    """One registered execution engine.

    ``name`` is the public identifier (``SimConfig(execution=name)``,
    ``repro metrics --engine name``); the modes tell each layer how to
    run without string-matching on the name anywhere else.
    """

    name: str
    zone_mode: str
    wire_mode: str
    description: str = ""
    #: What physically carries the wire image: ``"sim"`` (in-memory
    #: netsim links) or ``"udp"`` (real loopback datagrams between
    #: asyncio endpoints).
    transport: str = "sim"

    def __post_init__(self) -> None:
        if self.zone_mode not in ZONE_MODES:
            raise ValueError(f"zone_mode must be one of {ZONE_MODES}, "
                             f"not {self.zone_mode!r}")
        if self.wire_mode not in WIRE_MODES:
            raise ValueError(f"wire_mode must be one of {WIRE_MODES}, "
                             f"not {self.wire_mode!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, "
                             f"not {self.transport!r}")


_PLANES = {plane.name: plane for plane in (
    ExecutionPlane(
        name="event", zone_mode="event", wire_mode="event",
        description="per-cell discrete events: one packet and one "
                    "heap event per cell (the classical reference "
                    "engine)"),
    ExecutionPlane(
        name="batch", zone_mode="batch", wire_mode="batch",
        description="round-synchronous batches: one CellBatch per "
                    "link per round, one heap event per round"),
    ExecutionPlane(
        name="batch-v2", zone_mode="batch", wire_mode="vector",
        description="vectorized rounds: one run table per round "
                    "with aggregate chaff accounting"),
    ExecutionPlane(
        name="asyncio", zone_mode="batch", wire_mode="socket",
        transport="udp",
        description="real-network plane: the same round-synchronous "
                    "protocol, but every cell rides a framed UDP "
                    "datagram between per-node asyncio endpoints "
                    "over loopback, bootstrapped by an introducer "
                    "(DESIGN.md §14)"),
)}


def plane_names() -> Tuple[str, ...]:
    """Plane names, in table order."""
    return tuple(_PLANES)


def resolve(execution: str) -> ExecutionPlane:
    """Resolve an ``execution=`` / ``--engine`` name to its
    :class:`ExecutionPlane`; unknown names raise ``ValueError``
    listing what exists (with a did-you-mean when close)."""
    found = _PLANES.get(execution)
    if found is not None:
        return found
    import difflib
    close = difflib.get_close_matches(str(execution), _PLANES, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    raise ValueError(
        f"unknown execution plane {execution!r}; registered planes: "
        f"{', '.join(_PLANES)}{hint}")


def create_wire_fabric(execution: str, *, seed: int = 0,
                       interval: Optional[float] = None,
                       observer=None):
    """The transport seam: build the concrete
    :class:`~repro.core.transport.CellTransport` for a resolved plane.

    ``"sim"`` transports get a :class:`~repro.simulation.roundsync
    .WireFabric`; ``"udp"`` transports get a :class:`~repro.net
    .transport.UdpFabric` (real loopback datagrams).  Protocol code
    (:class:`~repro.simulation.live.LiveZone`, the scenario engine,
    herdbench) calls this instead of importing either module —
    imports happen lazily here, so the simulator never pays for the
    socket plane and vice versa.
    """
    plane = resolve(execution)
    if interval is None:
        from repro.simulation.roundsync import \
            DEFAULT_ROUND_INTERVAL_S
        interval = DEFAULT_ROUND_INTERVAL_S
    if plane.transport == "udp":
        from repro.net.transport import UdpFabric
        return UdpFabric(seed=seed, interval=interval,
                         observer=observer)
    from repro.simulation.roundsync import WireFabric
    return WireFabric(seed=seed, interval=interval,
                      execution=plane.name, observer=observer)
