"""Trace-driven and packet-level simulations of Herd deployments.

* ``spsim`` — §4.1.6 superpeer blocking and mix offload over a trace.
* ``herd_sim`` — zone provisioning, rate epochs, traffic matrices.
* ``testbed`` — every ``repro.core`` object in one in-memory deployment.
* ``live`` — one zone's round-based SP data plane.
* ``clientpool`` — a ``live`` zone's simulated clients.
* ``roundsync`` — a ``live`` zone's wire image, on every engine.
* ``churn`` — mix / SP failover, re-join, and availability.
* ``deployment`` — Fig. 7: abstract relays on the EC2 geography.
* ``wired`` — real calls timed hop by hop on that simulated WAN.
* ``federation`` — two live zones, SP channels at both ends of a call.
"""

from repro.simulation.spsim import (
    BlockingResult,
    SPSimConfig,
    simulate_blocking,
)
from repro.simulation.herd_sim import (
    provision_zone,
    rate_epoch_series,
)
from repro.simulation.deployment import (
    DeploymentConfig,
    measure_pair_latencies,
)
from repro.simulation.testbed import HerdTestbed, build_testbed
from repro.simulation.live import LiveZone
from repro.simulation.roundsync import WireFabric
from repro.simulation.wired import WiredConfig, WiredHerd
from repro.simulation.federation import FederatedHerd
from repro.simulation.churn import (
    AvailabilityModel,
    fail_mix,
    fail_superpeer,
    recover_mix,
    recover_superpeer,
)

# ProvisioningResult and LatencyMeasurement are result records of
# their entry points, not standalone API — import them from their
# defining modules.
__all__ = [
    "BlockingResult",
    "SPSimConfig",
    "simulate_blocking",
    "provision_zone",
    "rate_epoch_series",
    "DeploymentConfig",
    "measure_pair_latencies",
    "HerdTestbed",
    "build_testbed",
    "LiveZone",
    "WireFabric",
    "WiredConfig",
    "WiredHerd",
    "FederatedHerd",
    "AvailabilityModel",
    "fail_mix",
    "fail_superpeer",
    "recover_mix",
    "recover_superpeer",
]
