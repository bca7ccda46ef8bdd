"""Discrete-event network simulation substrate.

The paper evaluates Herd on a live Amazon EC2 deployment plus
trace-driven simulations.  Lacking a testbed, this package provides the
closest synthetic equivalent: a deterministic discrete-event simulator
with

* an event :class:`~repro.netsim.engine.EventLoop` (priority queue,
  virtual clock),
* :class:`~repro.netsim.node.Node` endpoints with packet handlers,
* :class:`~repro.netsim.link.Link` objects modelling propagation delay,
  bandwidth, jitter, and random loss,
* a geographic :mod:`~repro.netsim.topology` with an EC2-derived
  inter-region RTT matrix (AU/EU/NA/SA as in the paper's Fig. 7), and
* a link-level :class:`~repro.netsim.observer.LinkObserver` that records
  the *time series of encrypted packets* — exactly the adversary
  capability assumed by Herd's threat model (§3, "able to observe the
  time series of encrypted traffic on all Herd links").
"""

from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet
from repro.netsim.node import Node
from repro.netsim.link import Link
from repro.netsim.rounds import RoundScheduler
from repro.netsim.topology import (
    Site,
    GeoTopology,
    EC2_REGIONS,
    default_topology,
)
from repro.netsim.observer import LinkObserver

# Event, LinkStats, Region, and Observation are implementation detail
# of their modules — import them from there if you really need them.
__all__ = [
    "EventLoop",
    "Packet",
    "Node",
    "Link",
    "RoundScheduler",
    "Site",
    "GeoTopology",
    "EC2_REGIONS",
    "default_topology",
    "LinkObserver",
]
