"""Packet-level deployment simulation: the Fig. 7 experiment.

The paper deployed 8 mixes/rendezvous, 2 directories, and 4 SPs on four
EC2 regions and had volunteers make one-way calls between every zone
pair, measuring end-to-end latency and loss every second and scoring
them with the E-Model (§4.3.2).

This module reproduces that methodology on the network simulator:

* one zone per region (AU/EU/NA/SA) with an entry and rendezvous mix
  per zone, sub-millisecond intra-DC links, and the EC2 inter-region
  delay matrix,
* callers/callees on last-mile access links (volunteers "connected
  from university networks"),
* optionally one SP hop on each side (the 7-hop configuration),
* a stream of voice-sized probe packets per zone pair, timed through
  every hop, with loss and jitter,
* the Drac H=0 baseline: a direct path between the two clients.

Results feed :class:`~repro.voip.emodel.EModel` to produce the MOS
bands of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.obs.metrics import MetricsRegistry
from repro.netsim.topology import (
    DEFAULT_ACCESS_JITTER,
    DEFAULT_ACCESS_OWD,
    GeoTopology,
    default_topology,
)
from repro.voip.codec import Codec, G711
from repro.voip.emodel import CallQuality, EModel


@dataclass
class DeploymentConfig:
    """Parameters of the simulated deployment."""

    regions: Tuple[str, ...] = ("AU", "EU", "NA", "SA")
    with_sps: bool = False
    #: Per-mix store-and-forward processing delay (decrypt, re-pad).
    mix_processing_s: float = 0.0008
    #: SP forwarding delay (XOR, fan-out).
    sp_processing_s: float = 0.0004
    access_owd_s: float = DEFAULT_ACCESS_OWD
    access_jitter_s: float = DEFAULT_ACCESS_JITTER
    access_loss: float = 0.002
    backbone_loss: float = 0.0005
    n_probe_packets: int = 500
    codec: Codec = G711
    seed: int = 20150817


#: Probe OWD histogram buckets (ms): spans direct intra-continental
#: paths up to chaff-aligned 7-hop AU routes.
PROBE_OWD_BUCKETS_MS = (25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0,
                        300.0, 400.0, 500.0, 750.0, 1000.0)


@dataclass
class LatencyMeasurement:
    """One zone pair's measured quality (one call direction).

    The counts live in a :class:`~repro.obs.metrics.MetricsRegistry`
    (``herd_probes_sent_total`` / ``herd_probes_received_total`` /
    ``herd_probe_owd_ms``, labelled by src/dst/system) — pass a shared
    registry to aggregate a whole Fig. 7 run; a private one is created
    otherwise.  ``owd_samples_ms`` is kept verbatim as well so the
    exact mean/p95 statistics are unchanged by the metrics backing.
    """

    src_region: str
    dst_region: str
    system: str
    owd_samples_ms: List[float] = field(default_factory=list)
    registry: Optional[MetricsRegistry] = \
        field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()
        labels = {"src": self.src_region, "dst": self.dst_region,
                  "system": self.system}
        self._sent = self.registry.counter(
            "herd_probes_sent_total", labels,
            help="probe packets emitted per zone pair")
        self._received = self.registry.counter(
            "herd_probes_received_total", labels,
            help="probe packets delivered per zone pair")
        self._owd = self.registry.histogram(
            "herd_probe_owd_ms", labels,
            buckets=PROBE_OWD_BUCKETS_MS,
            help="one-way probe delay per zone pair (ms)")

    def record_sent(self) -> None:
        self._sent.inc()

    def record_received(self, owd_ms: float) -> None:
        self.owd_samples_ms.append(owd_ms)
        self._received.inc()
        self._owd.observe(owd_ms)

    @property
    def sent(self) -> int:
        return int(self._sent.value)

    @property
    def received(self) -> int:
        return int(self._received.value)

    @property
    def loss_fraction(self) -> float:
        if self.sent == 0:
            return 0.0
        return 1.0 - self.received / self.sent

    @property
    def mean_owd_ms(self) -> float:
        if not self.owd_samples_ms:
            return float("inf")
        return float(np.mean(self.owd_samples_ms))

    @property
    def p95_owd_ms(self) -> float:
        if not self.owd_samples_ms:
            return float("inf")
        return float(np.percentile(self.owd_samples_ms, 95))

    def quality(self, model: Optional[EModel] = None) -> CallQuality:
        model = model or EModel()
        return model.evaluate(self.mean_owd_ms, self.loss_fraction)


def chaff_wait(ready_at: float, phase: float, interval: float) -> float:
    """Wait from ``ready_at`` to the next tick of a chaff clock with
    period ``interval`` (0: no clock) and offset ``phase``."""
    if interval <= 0:
        return 0.0
    since_phase = (ready_at - phase) % interval
    return (interval - since_phase) % interval


class _RelayNode(Node):
    """Store-and-forward relay with chaff-clock alignment.

    A chaffed link transmits exactly one packet per codec frame at
    fixed clock ticks (§3.4.1) — a relayed payload cell must wait for
    the hop's next tick, adding Uniform(0, frame) delay per hop.  This
    per-hop alignment is the dominant component of Herd's extra latency
    over a direct path (the paper's ≈100 ms for 5–7 chaffed hops).
    """

    def __init__(self, name: str, loop, processing_s: float,
                 chaff_interval_s: float = 0.0):
        super().__init__(name, loop)
        self.processing_s = processing_s
        self.chaff_interval_s = chaff_interval_s
        #: Random phase of this hop's chaff clock.
        self._phase = (loop.rng.random() * chaff_interval_s
                       if chaff_interval_s > 0 else 0.0)
        self.on_packet(self._relay)

    def _relay(self, packet: Packet) -> None:
        route: List[str] = packet.route  # type: ignore[attr-defined]
        idx = route.index(self.name)
        if idx + 1 >= len(route):
            return
        next_hop = route[idx + 1]
        ready_at = self.loop.now + self.processing_s
        delay = self.processing_s + chaff_wait(ready_at, self._phase,
                                               self.chaff_interval_s)
        self.loop.schedule(delay, lambda: self.send(next_hop, packet))


class _SinkNode(Node):
    """Terminal node recording arrival times."""

    def __init__(self, name: str, loop, measurement: LatencyMeasurement):
        super().__init__(name, loop)
        self.measurement = measurement
        self.on_packet(self._record)

    def _record(self, packet: Packet) -> None:
        owd = (self.loop.now - packet.departure) * 1000.0  # type: ignore
        self.measurement.record_received(owd)


def _build_pair(loop: EventLoop, topo: GeoTopology,
                config: DeploymentConfig, src: str, dst: str,
                system: str,
                registry: Optional[MetricsRegistry] = None
                ) -> Tuple[Node, List[str], LatencyMeasurement]:
    """Wire the node chain for one (src region → dst region) call and
    return (source node, route, measurement)."""
    measurement = LatencyMeasurement(src, dst, system,
                                     registry=registry)
    source = Node(f"caller-{src}", loop)
    sink = _SinkNode(f"callee-{dst}", loop, measurement)
    site_src, site_dst = f"dc-{src.lower()}", f"dc-{dst.lower()}"

    if system == "drac":
        # H=0: a direct path between the two clients.
        Link(loop, source, sink,
             one_way_delay=(2 * config.access_owd_s
                            + topo.inter_region_delay(src, dst)),
             jitter_std=config.access_jitter_s,
             loss_rate=config.access_loss)
        return source, [source.name, sink.name], measurement

    chain: List[Node] = [source]
    specs: List[Tuple[float, float, float]] = []  # delay, jitter, loss
    frame_s = config.codec.frame_ms / 1000.0

    def relay(name: str, processing: float) -> Node:
        node = _RelayNode(name, loop, processing,
                          chaff_interval_s=frame_s)
        chain.append(node)
        return node

    if config.with_sps:
        relay(f"sp-{src}", config.sp_processing_s)
        specs.append((config.access_owd_s / 2, config.access_jitter_s,
                      config.access_loss))
    relay(f"entry-{src}", config.mix_processing_s)
    specs.append((config.access_owd_s, config.access_jitter_s,
                  config.access_loss))
    relay(f"rdv-{src}", config.mix_processing_s)
    specs.append((topo.one_way_delay(site_src, site_src), 0.0,
                  config.backbone_loss))
    relay(f"rdv-{dst}", config.mix_processing_s)
    specs.append((topo.one_way_delay(site_src, site_dst), 0.0,
                  config.backbone_loss))
    relay(f"entry-{dst}", config.mix_processing_s)
    specs.append((topo.one_way_delay(site_dst, site_dst), 0.0,
                  config.backbone_loss))
    if config.with_sps:
        relay(f"sp-{dst}", config.sp_processing_s)
        specs.append((config.access_owd_s / 2, config.access_jitter_s,
                      config.access_loss))
    chain.append(sink)
    specs.append((config.access_owd_s, config.access_jitter_s,
                  config.access_loss))

    for (a, b), (delay, jitter, loss) in zip(zip(chain, chain[1:]),
                                             specs):
        Link(loop, a, b, one_way_delay=delay, jitter_std=jitter,
             loss_rate=loss)
    return source, [n.name for n in chain], measurement


def measure_pair_latencies(config: Optional[DeploymentConfig] = None,
                           systems: Tuple[str, ...] = ("herd", "drac"),
                           registry: Optional[MetricsRegistry] = None
                           ) -> Dict[Tuple[str, str, str],
                                     LatencyMeasurement]:
    """Run probe streams for every ordered zone pair and system.

    Returns measurements keyed by (src_region, dst_region, system).
    One-way calls between every zone pair, per the paper's methodology
    (12 calls for 4 zones — plus the reverse directions, which are
    statistically identical here).  ``registry`` aggregates every
    pair's probe counters and OWD histogram in one place (the Fig. 7
    benchmark reads its rows from there).
    """
    config = config or DeploymentConfig()
    # Explicit None test: an instrument-less registry is len() == 0 and
    # therefore falsy, but it is still the caller's aggregation point.
    if registry is None:
        registry = MetricsRegistry()
    topo = default_topology()
    results: Dict[Tuple[str, str, str], LatencyMeasurement] = {}
    frame_interval = config.codec.frame_ms / 1000.0
    for src in config.regions:
        for dst in config.regions:
            if src == dst:
                continue
            loop = EventLoop(seed=config.seed)
            registry.use_clock(lambda loop=loop: loop.now)
            for system in systems:
                source, route, measurement = _build_pair(
                    loop, topo, config, src, dst, system,
                    registry=registry)
                payload = b"\xa5" * config.codec.payload_bytes

                def emit(i, source=source, route=route,
                         measurement=measurement, payload=payload):
                    packet = Packet(payload, route[0], route[-1],
                                    kind="voip")
                    packet.route = route  # type: ignore[attr-defined]
                    packet.departure = loop.now  # type: ignore
                    measurement.record_sent()
                    source.send(route[1], packet)

                for i in range(config.n_probe_packets):
                    loop.schedule(i * frame_interval,
                                  lambda i=i, emit=emit: emit(i))
                results[(src, dst, system)] = measurement
            loop.run()
    return results


def herd_extra_latency_ms(results: Dict[Tuple[str, str, str],
                                        LatencyMeasurement]) -> float:
    """Average one-way latency Herd adds over a direct (Drac H=0) call
    across all measured pairs — the paper reports ≈100 ms."""
    deltas = []
    pairs = {(s, d) for (s, d, sys) in results if sys == "herd"}
    for s, d in pairs:
        herd = results[(s, d, "herd")]
        drac = results[(s, d, "drac")]
        if herd.received and drac.received:
            deltas.append(herd.mean_owd_ms - drac.mean_owd_ms)
    if not deltas:
        raise ValueError("no complete pair measurements")
    return float(np.mean(deltas))
