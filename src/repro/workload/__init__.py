"""Workload substrate: call traces and social-graph degree models.

The paper's simulations are driven by a proprietary, IRB-approved trace
of 370 million mobile phone calls among 10.8 million subscribers, plus
Twitter (54M users) and Facebook (1,165 users) social datasets.  None
of these are available, so this package synthesizes statistically
matched substitutes (see DESIGN.md, "Substitutions"):

* :mod:`repro.workload.cdr` — call detail records and trace containers
  with concurrency/duty-cycle analytics.
* :mod:`repro.workload.generator` — a seeded synthetic CDR generator
  reproducing the aggregates the paper reports (diurnal load, ~1.6%
  peak duty cycle, median contact degree 12, heavy-tailed degrees).
* :mod:`repro.workload.social` — heavy-tailed social graph degree
  models for the Drac comparison (Twitter/Facebook-like).
* :mod:`repro.workload.datasets` — the three dataset presets with the
  paper's published statistics attached.
* :mod:`repro.workload.arrivals` — seeded arrival processes feeding
  the scenario engine's workloads (Poisson + trace replay).
"""

from repro.workload.arrivals import (
    arrival_times_from_trace,
    poisson_arrival_times,
)
from repro.workload.cdr import CallRecord, CallTrace
from repro.workload.generator import SyntheticTraceConfig, generate_trace
from repro.workload.social import degree_sequence
from repro.workload.datasets import (
    DatasetSpec,
    MOBILE,
    TWITTER,
    FACEBOOK,
    DATASETS,
)

__all__ = [
    "CallRecord",
    "CallTrace",
    "arrival_times_from_trace",
    "poisson_arrival_times",
    "SyntheticTraceConfig",
    "generate_trace",
    "degree_sequence",
    "DatasetSpec",
    "MOBILE",
    "TWITTER",
    "FACEBOOK",
    "DATASETS",
]
