"""Wiring herdscope into the protocol stack.

:class:`Herdscope` bundles one run's :class:`~repro.obs.metrics
.MetricsRegistry` and :class:`~repro.obs.trace.Tracer` behind a single
virtual clock, plus ``attach_*`` methods that install duck-typed hook
objects on the instrumented components:

* :meth:`Herdscope.attach_loop` — :class:`~repro.netsim.engine
  .EventLoop` events scheduled/fired/cancelled and queue depth; on
  ``cancel_all`` the tracer drains every span a cancelled event would
  have closed.
* :meth:`Herdscope.attach_superpeer` — per-SP logical link counters:
  upstream XOR rounds to the mix, downstream broadcast fan-out to
  clients.
* :meth:`Herdscope.attach_call_manager` — call setup/teardown/blocked/
  failover counts and the per-round chaff vs. payload cell census of
  :meth:`~repro.core.callmanager.MixCallManager.downstream_round`.
* :meth:`Herdscope.attach_injector` — fault timeline entries become
  trace events; injected→recovered windows become spans.
* :meth:`Herdscope.attach_live_zone` — everything above for a
  :class:`~repro.simulation.live.LiveZone`, plus client-side call
  spans (signal → GRANT) measured in rounds.

Every component checks ``self.obs is not None`` before calling a hook,
so an un-instrumented run pays one attribute test per event and the
protocol modules never import this package.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JsonlTraceSink, RingBufferTraceSink, Span, \
    Tracer


class LoopHook:
    """EventLoop instrumentation (events, queue depth, span drain)."""

    def __init__(self, scope: "Herdscope"):
        self.scope = scope
        reg = scope.registry
        self._scheduled = reg.counter(
            "herd_loop_events_scheduled_total",
            help="events pushed onto the virtual-time loop")
        self._fired = reg.counter(
            "herd_loop_events_fired_total",
            help="events executed by the virtual-time loop")
        self._cancelled = reg.counter(
            "herd_loop_events_cancelled_total",
            help="events cancelled before firing")
        self._depth = reg.gauge(
            "herd_loop_queue_depth",
            help="entries in the loop's priority queue")
        self._drained = reg.counter(
            "herd_spans_drained_total",
            help="open spans force-closed by cancel_all teardown")

    def scheduled(self, loop, event) -> None:
        self._scheduled.inc()
        self._depth.set(len(loop._queue))

    def fired(self, loop, event) -> None:
        self._fired.inc()
        self._depth.set(len(loop._queue))

    def cancelled_all(self, loop, n_cancelled: int) -> None:
        """``cancel_all`` emptied the queue: record it and drain every
        span left open by the events that will now never fire."""
        self._cancelled.inc(n_cancelled)
        self._depth.set(0)
        drained = self.scope.tracer.drain_open_spans(reason="cancelled")
        if drained:
            self._drained.inc(drained)


class SuperPeerHook:
    """Per-SP logical-link accounting (§3.6 data plane)."""

    def __init__(self, scope: "Herdscope", sp):
        reg = scope.registry
        up = {"link": f"{sp.sp_id}->{sp.mix_id}"}
        down = {"link": f"{sp.mix_id}->{sp.sp_id}"}
        fan = {"link": f"{sp.sp_id}->clients"}
        self._up_bytes = reg.counter(
            "herd_link_bytes_total", up,
            help="bytes offered per directed link")
        self._up_packets = reg.counter("herd_link_packets_total", up,
                                       help="packets offered per "
                                            "directed link")
        self._down_bytes = reg.counter("herd_link_bytes_total", down)
        self._down_packets = reg.counter("herd_link_packets_total",
                                         down)
        self._fan_bytes = reg.counter("herd_link_bytes_total", fan)
        self._fan_packets = reg.counter("herd_link_packets_total", fan)
        self._rounds = reg.counter(
            "herd_sp_rounds_total", {"sp": sp.sp_id},
            help="upstream XOR rounds combined by the SP")

    def upstream_round(self, channel_id: int, round_index: int,
                       xor_bytes: int, manifest_bytes: int) -> None:
        self._rounds.inc()
        self._up_packets.inc()
        self._up_bytes.inc(xor_bytes + manifest_bytes)

    def downstream_broadcast(self, channel_id: int, packet_bytes: int,
                             n_clients: int) -> None:
        self._down_packets.inc()
        self._down_bytes.inc(packet_bytes)
        self._fan_packets.inc(n_clients)
        self._fan_bytes.inc(packet_bytes * n_clients)


class CallManagerHook:
    """Mix-side call lifecycle and per-round cell census."""

    def __init__(self, scope: "Herdscope"):
        self.scope = scope
        reg = scope.registry
        self._signaled = reg.counter(
            "herd_calls_signaled_total",
            help="outgoing-call signal bits acted on by the mix")
        self._blocked = reg.counter(
            "herd_calls_blocked_total",
            help="call legs denied for lack of a free channel")
        self._ended = reg.counter("herd_calls_ended_total",
                                  help="call legs torn down")
        self._busy = reg.gauge(
            "herd_mix_busy_channels",
            help="channels carrying a call this round")
        self._occupancy = reg.gauge(
            "herd_mix_channel_occupancy",
            help="busy fraction of enabled channels")

    def signaled(self, numeric_id: int) -> None:
        self._signaled.inc()

    def granted(self, numeric_id: int, channel_id: int,
                outgoing: bool) -> None:
        direction = "outgoing" if outgoing else "incoming"
        self.scope.registry.counter(
            "herd_calls_granted_total", {"direction": direction},
            help="call legs allocated a channel").inc()

    def blocked(self, numeric_id: int) -> None:
        self._blocked.inc()

    def ended(self, numeric_id: int) -> None:
        self._ended.inc()

    def failover(self, record) -> None:
        outcome = "survived" if record.survived else "dropped"
        self.scope.registry.counter(
            "herd_failovers_total", {"outcome": outcome},
            help="mid-call channel failovers").inc()
        self.scope.tracer.event(
            "failover", numeric_id=record.numeric_id,
            old_channel=record.old_channel,
            new_channel="none" if record.new_channel is None
            else record.new_channel, outcome=outcome)

    def downstream_round(self, round_index: int, payload: int,
                         chaff: int, control: int, busy: int,
                         enabled: int) -> None:
        reg = self.scope.registry
        for kind, n in (("payload", payload), ("chaff", chaff),
                        ("control", control)):
            reg.counter("herd_mix_cells_total", {"kind": kind},
                        help="downstream cells by kind "
                             "(chaff vs payload vs control)").inc(n)
            reg.gauge("herd_round_cells", {"kind": kind},
                      help="downstream cells of the latest round "
                           "by kind").set(n)
        self._busy.set(busy)
        self._occupancy.set(busy / enabled if enabled else 0.0)


class FaultHook:
    """Fault timeline entries as trace events; fault windows as
    spans (injected → recovered)."""

    def __init__(self, scope: "Herdscope"):
        self.scope = scope
        self._open: Dict[Tuple[str, str], Span] = {}

    def fault_event(self, entry) -> None:
        self.scope.registry.counter(
            "herd_fault_events_total",
            {"action": entry.action, "kind": entry.kind},
            help="fault-injector timeline entries").inc()
        key = (entry.kind, entry.target)
        if entry.action == "injected":
            self._open[key] = self.scope.tracer.begin_span(
                "fault", kind=entry.kind, target=entry.target,
                detail=entry.detail)
        elif entry.action == "recovered":
            span = self._open.pop(key, None)
            if span is not None:
                self.scope.tracer.end_span(span, outcome="recovered")
            else:
                self.scope.tracer.event("fault_recovered",
                                        kind=entry.kind,
                                        target=entry.target)
        else:
            self.scope.tracer.event(
                "fault_" + entry.action, kind=entry.kind,
                target=entry.target, detail=entry.detail)


class LiveZoneHook:
    """Client-side call spans and round progress for a LiveZone."""

    def __init__(self, scope: "Herdscope", zone):
        self.scope = scope
        self.zone = zone
        reg = scope.registry
        self._rounds = reg.counter(
            "herd_zone_rounds_total", {"zone": zone.zone_id},
            help="data-plane rounds run")
        self._voice = reg.counter(
            "herd_voice_cells_received_total",
            help="non-empty voice cells delivered to clients")
        self._setup = reg.histogram(
            "herd_call_setup_rounds",
            buckets=(0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0),
            help="rounds from signaling to GRANT/INCOMING")
        #: client id -> open call-setup span.
        self._setup_spans: Dict[str, Span] = {}
        #: client id -> the (shared) call span it participates in.
        self._call_spans: Dict[str, Span] = {}

    def call_started(self, caller_id: str, callee_id: str) -> None:
        tracer = self.scope.tracer
        self._setup_spans[caller_id] = tracer.begin_span(
            "call_setup", client=caller_id)
        span = tracer.begin_span("call", caller=caller_id,
                                 callee=callee_id)
        self._call_spans[caller_id] = span
        self._call_spans[callee_id] = span

    def client_event(self, client_id: str, event: str) -> None:
        if event in ("granted", "ringing"):
            span = self._setup_spans.pop(client_id, None)
            if span is not None:
                self.scope.tracer.end_span(span, outcome=event)
                self._setup.observe(span.end - span.start)
        elif event == "voice":
            self._voice.inc()

    def call_ended(self, client_id: str) -> None:
        setup = self._setup_spans.pop(client_id, None)
        if setup is not None:
            self.scope.tracer.end_span(setup, outcome="hangup")
        span = self._call_spans.pop(client_id, None)
        if span is not None:
            self.scope.tracer.end_span(span)  # idempotent for the peer

    def round_finished(self, round_index: int) -> None:
        self._rounds.inc()


class Herdscope:
    """One run's observability: registry + tracer on a shared virtual
    clock, plus the attach methods that wire them into components.

    Parameters
    ----------
    clock:
        Zero-argument virtual-time callable.  Re-pointable later via
        :meth:`use_clock` (e.g. once the owning loop exists).
    trace_path:
        Optional JSONL file for the full trace stream.
    trace_buffer:
        Capacity of the in-memory ring buffer (0 disables it).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 trace_path: Optional[str] = None,
                 trace_buffer: int = 4096):
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self._clock_installed = clock is not None
        self.registry = MetricsRegistry(self.now)
        self.tracer = Tracer(self.now)
        self.ring: Optional[RingBufferTraceSink] = None
        self.jsonl: Optional[JsonlTraceSink] = None
        if trace_buffer > 0:
            self.ring = self.tracer.add_sink(
                RingBufferTraceSink(trace_buffer))
        if trace_path is not None:
            self.jsonl = self.tracer.add_sink(JsonlTraceSink(trace_path))

    # -- clock ----------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Point registry and tracer at the run's real virtual clock
        (``loop.now``, or a round counter)."""
        self._clock = clock
        self._clock_installed = True

    # -- attachment -----------------------------------------------------------

    def attach_loop(self, loop) -> LoopHook:
        """Instrument an EventLoop; also adopts ``loop.now`` as the
        scope clock unless one was installed already."""
        if not self._clock_installed:
            self.use_clock(lambda: loop.now)
        hook = LoopHook(self)
        loop.obs = hook
        return hook

    def attach_superpeer(self, sp) -> SuperPeerHook:
        hook = SuperPeerHook(self, sp)
        sp.obs = hook
        return hook

    def attach_call_manager(self, manager) -> CallManagerHook:
        hook = CallManagerHook(self)
        manager.obs = hook
        return hook

    def attach_injector(self, injector) -> FaultHook:
        hook = FaultHook(self)
        injector.obs = hook
        return hook

    def attach_live_zone(self, zone) -> LiveZoneHook:
        """Wire a LiveZone end to end: zone hook, its call manager,
        and every superpeer."""
        hook = LiveZoneHook(self, zone)
        zone.obs = hook
        self.attach_call_manager(zone.manager)
        for sp in zone.sps:
            self.attach_superpeer(sp)
        return hook

    # -- lifecycle ------------------------------------------------------------

    def snapshot(self):
        return self.registry.snapshot()

    def close(self) -> None:
        self.tracer.close()
