"""The ExecutionPlane registry: execution engines resolved by name.

Every layer that accepts an ``execution=`` knob
(:class:`repro.api.SimConfig`, :class:`repro.simulation.live.LiveZone`,
:class:`repro.simulation.roundsync.WireFabric`, the scenario engine)
resolves the name through :func:`resolve`, so an execution plane is
*listed* once, here.

A plane is described by two orthogonal modes:

* ``zone_mode`` — the form of a :class:`~repro.simulation.live.LiveZone`
  round's phases: ``"event"`` (the roles' per-item functions, a member
  at a time) or ``"batch"`` (the same phases over the roster columns,
  drawn ahead).  The phases, their order and the protocol's bytes are
  the same either way (DESIGN.md §9).
* ``wire_mode`` — how the wire image is carried: ``"event"`` (one
  packet + heap event per cell on the :class:`~repro.simulation
  .roundsync.WireFabric`), ``"vector"`` (one run table per round with
  aggregate chaff accounting — O(runs) per round, DESIGN.md §13), or
  ``"socket"`` (real datagrams).

A third axis, ``transport``, says what physically carries the wire
image: ``"sim"`` (the in-memory :class:`~repro.simulation.roundsync
.WireFabric` over netsim links) or ``"udp"`` (the real-network plane:
cells framed by :mod:`repro.core.wire` ride real UDP datagrams between
per-node ``asyncio`` endpoints, bootstrapped by the
:mod:`repro.net.introducer`).  Protocol code never branches on the
transport — :func:`create_wire_fabric` is the single seam where a
resolved plane becomes a concrete :class:`~repro.core.transport
.CellTransport`.

Built-in planes: ``"event"`` (the reference), ``"batch-v2"`` (the
vectorized plane), and ``"asyncio"`` (same protocol, real UDP sockets
over loopback — DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


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


_PLANES = {plane.name: plane for plane in (
    ExecutionPlane(
        name="event", zone_mode="event", wire_mode="event",
        description="per-cell discrete events: one packet and one "
                    "heap event per cell (the classical reference "
                    "engine)"),
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
