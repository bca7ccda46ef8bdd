"""Trace-driven and packet-level simulations of Herd deployments.

* :mod:`repro.simulation.spsim` — the §4.1.6 superpeer simulations:
  channel allocation, call blocking, and mix offload driven by a call
  trace ("we aggregate the call start and end times into one-minute
  bins to improve the runtime of our simulations").
* :mod:`repro.simulation.herd_sim` — zone-level trace simulation:
  provisioning, rate-controller epochs, inter-zone traffic matrices.
* :mod:`repro.simulation.deployment` — a packet-level 4-zone
  deployment on the network simulator with EC2 geography: the
  prototype-evaluation substitute behind Fig. 7 and the
  traffic-analysis experiments.
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
    rejoin_clients,
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
    "rejoin_clients",
]
