"""The real-network transport plane (``execution="asyncio"``).

This package is the ``"udp"`` side of the transport seam
(:mod:`repro.core.transport`, DESIGN.md §14): the same
round-synchronous Herd protocol the simulator engines run, but with
every cell framed by :func:`repro.core.wire.encode_cell_frame` and
carried as a real UDP datagram over loopback between per-node
``asyncio`` endpoints.

* :mod:`repro.net.introducer` — the tahoe-lafs-style introducer:
  nodes ANNOUNCE their UDP address at startup and peers fetch the
  resulting DIRECTORY, all over the same loopback datagrams.
* :mod:`repro.net.transport` — :class:`~repro.net.transport
  .UdpFabric`, the :class:`~repro.core.transport.CellTransport` whose
  :meth:`flush_round` drains the round queue the base class owns,
  physically transmits the round, waits for every datagram to land
  (retransmitting losses), and bridges the received traffic into the
  public tap protocol (:mod:`repro.netsim.taps`) so wiretap
  observations, herdscope metrics, and report rows come out
  identically to the simulator planes.

The whole plane — introducer, endpoints, collector — runs on one
private event loop in the run's own process.

Nothing in :mod:`repro.core` or :mod:`repro.simulation` imports this
package; the only entry point is
:func:`repro.execution.create_wire_fabric`.
"""

from repro.net.introducer import Introducer
from repro.net.transport import UdpFabric

__all__ = ["Introducer", "UdpFabric"]
