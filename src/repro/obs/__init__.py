"""herdscope: virtual-time observability for the Herd reproduction.

The paper's evaluation (§4) is entirely metric-driven; herdscope makes
measurement core infrastructure rather than harness code:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms keyed by ``(name, labels)``,
  stamped with *virtual* time (EventLoop clock or round counter) so
  runs stay seed-replayable and HL001-clean.
* :mod:`repro.obs.trace` — a structured trace-event bus: spans with
  explicit virtual start/end times, JSONL and ring-buffer sinks,
  deterministic span ids.
* :mod:`repro.obs.instrument` — :class:`Herdscope`, the bundle of one
  run's registry + tracer, with ``attach_*`` hooks for the event loop,
  superpeers, call manager, fault injector, and live zones.
* :mod:`repro.obs.export` — Prometheus-style text and JSON snapshot
  renderers.
* :mod:`repro.obs.perfclock` — the one sanctioned *host*-clock read
  (the UDP plane's ``wall_send_seconds`` side channel).  Performance
  is measured from outside the package, by ``herdbench``.

The :mod:`repro.api` facade constructs a :class:`Herdscope` per
:class:`~repro.api.Simulation` and returns its snapshot and trace
handle in every :class:`~repro.api.RunReport`.
"""

from repro.obs.export import render_json, render_prometheus
from repro.obs.instrument import Herdscope
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
)
from repro.obs.trace import (
    JsonlTraceSink,
    RingBufferTraceSink,
    Span,
    TraceEvent,
    TraceSink,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Herdscope",
    "Histogram",
    "JsonlTraceSink",
    "LabelCardinalityError",
    "MetricsRegistry",
    "RingBufferTraceSink",
    "Span",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "render_json",
    "render_prometheus",
]
