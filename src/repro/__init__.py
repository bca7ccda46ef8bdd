"""Herd: a scalable, traffic-analysis resistant anonymity network for
VoIP systems — a full Python reproduction of the SIGCOMM 2015 paper by
Le Blond, Choffnes, Caldwell, Druschel, and Merritt.

Package map
-----------

* :mod:`repro.core` — the Herd protocol: zones, mixes, clients,
  superpeers, circuits, rendezvous, chaffing, network coding, channel
  allocation, signaling, blacklisting, and the security invariants.
* :mod:`repro.crypto` — from-scratch X25519 / Ed25519 /
  ChaCha20-Poly1305 / HKDF, PKI, DTLS-like links, onion encryption.
* :mod:`repro.netsim` — discrete-event network simulator with EC2
  geography and adversary link observers.
* :mod:`repro.voip` — codecs and the ITU-T G.107 E-Model.
* :mod:`repro.workload` — synthetic mobile call traces and social
  graphs matching the paper's published statistics.
* :mod:`repro.attacks` — intersection, correlation, and long-term
  intersection attacks.
* :mod:`repro.baselines` — Tor and Drac comparison models.
* :mod:`repro.analysis` — anonymity/bandwidth/cost/CPU analytics.
* :mod:`repro.simulation` — trace-driven and packet-level deployment
  simulations, plus an in-memory testbed.
* :mod:`repro.obs` — herdscope: virtual-time metrics, traces, and
  exporters.
* :mod:`repro.api` — the :class:`~repro.api.Simulation` facade in
  front of testbed, live-zone, and scenario runs.
* :mod:`repro.scenario` — the declarative composed-adversity scenario
  engine: workload × churn × faults × adversary from
  ``scenarios/*.toml``, replayable on both execution engines with a
  pinned determinism key.

Quick start
-----------

>>> from repro import SimConfig, Simulation
>>> report = Simulation(SimConfig(seed=7, call_pairs=2)).run(rounds=50)
>>> report.rounds_run
50
>>> print(report.to_prometheus())  # doctest: +SKIP
"""

__version__ = "1.1.0"

from repro.api import RunReport, SimConfig, Simulation
from repro.obs.metrics import MetricsRegistry
from repro.simulation.testbed import HerdTestbed, build_testbed
from repro.scenario import Scenario, ScenarioReport, run_scenario

__all__ = [
    "HerdTestbed",
    "MetricsRegistry",
    "RunReport",
    "Scenario",
    "ScenarioReport",
    "SimConfig",
    "Simulation",
    "build_testbed",
    "run_scenario",
    "__version__",
]
