"""The unified simulation facade: one front door to the reproduction.

The repo has three kinds of run — the in-memory
:func:`~repro.simulation.testbed.build_testbed`, the round-based
:class:`~repro.simulation.live.LiveZone`, and the fault-driven
scenario engine (:func:`repro.scenario.engine.execute`).  This module
puts one keyword-only surface in front of all of them:

>>> from repro import SimConfig, Simulation
>>> report = Simulation(SimConfig(seed=7)).run(rounds=50)
>>> report.metrics["herd_mix_cells_total"]["series"]  # doctest: +SKIP

Every :class:`Simulation` owns a :class:`~repro.obs.instrument
.Herdscope`, so every run produces a metrics snapshot and (optionally)
a JSONL trace stamped with *virtual* time — two runs with the same
:class:`SimConfig` are byte-identical.  ``LiveZone`` and
``build_testbed`` remain callable on their own; they are keyword-only
too (a positional call raises ``TypeError``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import execution as execution_registry
from repro.obs.export import render_json, render_prometheus
from repro.obs.instrument import Herdscope

SCENARIOS = ("live", "testbed", "scenario")


class SimConfig:
    """Keyword-only configuration for one :class:`Simulation`.

    Not a dataclass on purpose: ``dataclass(kw_only=True)`` needs
    Python 3.10 and this repo supports 3.9, so the keyword-only
    contract is written out by hand.

    Parameters
    ----------
    scenario:
        ``"live"`` (default) — one zone's SP data plane at round
        granularity; ``"testbed"`` — in-memory deployment placing
        end-to-end calls through circuits; ``"scenario"`` — a
        declared workload × churn × faults × adversary run (see
        ``scenario_def``).
    seed:
        Master seed; one seed reproduces a whole run.
    n_clients, n_channels, n_sps, k:
        Zone shape (live scenario; a ``scenario_def`` carries its own).
    zone_id, client_prefix:
        Naming of the live zone and its clients.
    zone_specs:
        Testbed zones as (zone_id, site_id, n_mixes) tuples
        (testbed scenario; ``None`` = the EU + NA default).
    call_pairs:
        Concurrent calls started at round/time zero.
    scenario_def:
        A :class:`~repro.scenario.model.Scenario` (the declarative
        composed-adversity scenario engine).  Passing one selects
        ``scenario="scenario"`` automatically; the scenario's own
        seed, shape, and horizon drive the run.
    execution:
        The execution engine, resolved by name through the
        :mod:`repro.execution` registry: ``"event"`` (default) — the
        classical per-cell / per-channel hot path; ``"batch-v2"`` —
        round-synchronous execution (one core entry point per
        component per round) on the vectorized wire plane (one run
        table per round with aggregate chaff accounting);
        ``"asyncio"`` — the real-network plane (the same
        round-synchronous protocol, every cell carried as a framed
        UDP datagram over loopback, DESIGN.md §14).  The
        engines are observationally equivalent: a seeded run
        produces byte-identical metrics snapshots, traces, and
        adversary observations under all of them (DESIGN.md §9,
        §13); they differ only in cost — and the real-network plane
        additionally reports host-socket accounting in
        ``report.detail["net"]``, a side channel outside every
        determinism key.  The testbed has one engine, ``"event"``;
        naming another for it raises ``ValueError``.
    wiretap:
        Live scenario only: materialize the zone's wire plane and tap
        every link with a global passive observer; the observation
        stream lands in ``report.detail["wiretap"]``.  Raises
        ``ValueError`` elsewhere: the testbed has no wire plane, and a
        scenario run declares its tap in the scenario itself
        (``[adversary] kind = "wiretap"``).
    trace_path:
        Optional JSONL file receiving the full trace stream.
    trace_buffer:
        In-memory trace ring capacity (0 disables the ring).
    """

    __slots__ = ("scenario", "seed", "n_clients", "n_channels",
                 "n_sps", "k", "zone_id", "zone_specs",
                 "client_prefix", "call_pairs",
                 "scenario_def", "trace_path", "trace_buffer",
                 "execution", "wiretap")

    def __init__(self, *, scenario: str = "live",
                 seed: int = 20150817, n_clients: int = 12,
                 n_channels: int = 4, n_sps: int = 1, k: int = 2,
                 zone_id: str = "zone-EU",
                 zone_specs: Optional[
                     Sequence[Tuple[str, str, int]]] = None,
                 client_prefix: str = "client", call_pairs: int = 1,
                 scenario_def=None,
                 trace_path: Optional[str] = None,
                 trace_buffer: int = 4096,
                 execution: str = "event",
                 wiretap: bool = False):
        if scenario_def is not None and scenario == "live":
            scenario = "scenario"
        if scenario == "scenario" and scenario_def is None:
            raise ValueError("scenario='scenario' needs scenario_def="
                             "Scenario(...)")
        if scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, "
                             f"not {scenario!r}")
        plane = execution_registry.resolve(execution)
        if scenario == "testbed" and plane.name != "event":
            raise ValueError(f"scenario='testbed' runs on the 'event' "
                             f"engine only, not {plane.name!r}")
        if wiretap and scenario != "live":
            raise ValueError(
                f"wiretap applies to scenario='live' only, not "
                f"{scenario!r} (a scenario file declares its tap: "
                f"[adversary] kind = 'wiretap')")
        if call_pairs < 0 or 2 * call_pairs > n_clients:
            raise ValueError("call_pairs needs two clients per call")
        self.scenario = scenario
        self.seed = seed
        self.n_clients = n_clients
        self.n_channels = n_channels
        self.n_sps = n_sps
        self.k = k
        self.zone_id = zone_id
        self.zone_specs = zone_specs
        self.client_prefix = client_prefix
        self.call_pairs = call_pairs
        self.scenario_def = scenario_def
        self.trace_path = trace_path
        self.trace_buffer = trace_buffer
        self.execution = plane.name
        self.wiretap = wiretap

    def __repr__(self) -> str:
        return (f"SimConfig(scenario={self.scenario!r}, "
                f"seed={self.seed}, n_clients={self.n_clients}, "
                f"n_channels={self.n_channels}, "
                f"call_pairs={self.call_pairs}, "
                f"execution={self.execution!r})")


class RunReport:
    """What one :meth:`Simulation.run` produced."""

    __slots__ = ("scenario", "seed", "rounds_run", "metrics",
                 "trace_events", "trace_path", "detail", "engine")

    def __init__(self, *, scenario: str, seed: int, rounds_run: int,
                 metrics: Dict[str, Any], trace_events: Tuple,
                 trace_path: Optional[str], detail: Any,
                 engine: str = "event"):
        self.scenario = scenario
        self.seed = seed
        self.rounds_run = rounds_run
        #: The execution engine the run used (registry name) — the
        #: same vocabulary as the ``--engine`` CLI flag.
        self.engine = engine
        #: Deterministic :meth:`~repro.obs.metrics.MetricsRegistry
        #: .snapshot` of every instrument the run touched.
        self.metrics = metrics
        #: Tail of the trace stream (the scope's ring buffer).
        self.trace_events = trace_events
        self.trace_path = trace_path
        #: Scenario-specific payload: a dict for live/testbed runs, a
        #: :class:`~repro.scenario.engine.ScenarioOutcome` for
        #: scenario runs.
        self.detail = detail

    def to_prometheus(self) -> str:
        """The metrics snapshot in Prometheus exposition format."""
        return render_prometheus(self.metrics)

    def to_json(self, indent: int = 2) -> str:
        """The metrics snapshot as canonical JSON."""
        return render_json(self.metrics, indent=indent)

    def counter_value(self, name: str,
                      labels: Optional[Dict[str, str]] = None) -> float:
        """Convenience lookup into the snapshot (0.0 when absent)."""
        want = {str(k): str(v) for k, v in (labels or {}).items()}
        for series in self.metrics.get(name, {}).get("series", ()):
            if series["labels"] == want:
                return series["value"]
        return 0.0

    def __repr__(self) -> str:
        return (f"RunReport(scenario={self.scenario!r}, "
                f"seed={self.seed}, rounds_run={self.rounds_run}, "
                f"metrics={len(self.metrics)} names, "
                f"trace_events={len(self.trace_events)})")


class Simulation:
    """One configured, instrumented run.

    A Simulation is one-shot: :meth:`run` drives the scenario, closes
    the trace sinks (so a ``trace_path`` file is complete on return),
    and hands back a :class:`RunReport`.  Construct a new Simulation
    for a new run — reusing one would splice two runs into one trace.
    """

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = config or SimConfig()
        self.scope = Herdscope(trace_path=self.config.trace_path,
                               trace_buffer=self.config.trace_buffer)
        self._finished = False

    def run(self, rounds: Optional[int] = None, *,
            until: Optional[float] = None) -> RunReport:
        """Drive the scenario for ``rounds`` data-plane rounds (live /
        testbed, default 50) or to virtual time ``until`` (a
        ``scenario_def``'s horizon, default the declared one).
        ``until`` is a scenario horizon only: live and testbed runs
        count rounds and reject it."""
        if self._finished:
            raise RuntimeError("this Simulation already ran; build a "
                               "new one for a new run")
        if rounds is not None and until is not None:
            raise ValueError("pass rounds= or until=, not both")
        cfg = self.config
        if cfg.scenario == "scenario":
            rounds_run, detail = self._run_scenario(until)
        elif until is not None:
            raise ValueError(
                f"until= is a scenario horizon in virtual seconds; "
                f"scenario={cfg.scenario!r} runs count rounds — pass "
                f"rounds=")
        elif cfg.scenario == "live":
            rounds_run, detail = self._run_live(
                50 if rounds is None else rounds)
        else:
            rounds_run, detail = self._run_testbed(
                50 if rounds is None else rounds)
        self._finished = True
        snapshot = self.scope.snapshot()
        ring = self.scope.ring
        events = tuple(ring.events) if ring is not None else ()
        self.scope.close()
        return RunReport(scenario=cfg.scenario, seed=cfg.seed,
                         rounds_run=rounds_run, metrics=snapshot,
                         trace_events=events,
                         trace_path=cfg.trace_path, detail=detail,
                         engine=cfg.execution)

    # -- scenarios ------------------------------------------------------------

    def _call_pairs(self) -> List[Tuple[str, str]]:
        prefix = self.config.client_prefix
        return [(f"{prefix}-{2 * i}", f"{prefix}-{2 * i + 1}")
                for i in range(self.config.call_pairs)]

    def _run_live(self, rounds: int) -> Tuple[int, Dict[str, Any]]:
        from repro.core.callmanager import CallState
        from repro.simulation.live import LiveZone
        cfg = self.config
        zone = LiveZone(n_clients=cfg.n_clients,
                        n_channels=cfg.n_channels, k=cfg.k,
                        n_sps=cfg.n_sps, seed=cfg.seed,
                        zone_id=cfg.zone_id,
                        client_prefix=cfg.client_prefix,
                        execution=cfg.execution)
        zone.tap_wire(cfg.wiretap)
        self.scope.use_clock(lambda: float(zone.round_index))
        self.scope.attach_live_zone(zone)
        for caller, callee in self._call_pairs():
            zone.start_call(caller, callee)
        for _ in range(rounds):
            for live in zone.clients.values():
                if live.agent.state is CallState.IN_CALL:
                    zone.say(live.client.client_id,
                             f"v{zone.round_index}".encode())
            zone.step()
        in_call = sum(1 for live in zone.clients.values()
                      if live.agent.state is CallState.IN_CALL)
        detail = {
            "zone_id": cfg.zone_id,
            "engine": cfg.execution,
            "clients_in_call": in_call,
            "calls_blocked": zone.manager.calls_blocked,
        }
        wiretap, net = zone.wire_readout(cfg.wiretap)
        if wiretap is not None:
            detail["wiretap"] = wiretap
        if net is not None:
            detail["net"] = net
        return zone.round_index, detail

    def _run_testbed(self, rounds: int) -> Tuple[int, Dict[str, Any]]:
        from repro.simulation.testbed import build_testbed
        cfg = self.config
        bed = build_testbed(cfg.zone_specs, seed=cfg.seed)
        frame_clock = {"round": 0}
        self.scope.use_clock(lambda: float(frame_clock["round"]))
        zone_ids = list(bed.zones)
        for i in range(cfg.n_clients):
            bed.add_client(f"{cfg.client_prefix}-{i}",
                           zone_ids[i % len(zone_ids)])
        sessions = []
        frames = self.scope.registry.counter(
            "herd_e2e_frames_total",
            help="voice frames carried end to end through circuits")
        frame_bytes = self.scope.registry.counter(
            "herd_e2e_frame_bytes_total",
            help="voice payload bytes carried end to end")
        for caller, callee in self._call_pairs():
            bed.ready_for_calls(caller)
            bed.ready_for_calls(callee)
            sessions.append(bed.call(caller, callee))
        delivered = 0
        for r in range(rounds):
            frame_clock["round"] = r
            payload = b"\x42" * 160
            this_round = 0
            for session in sessions:
                for direction in ("caller_to_callee",
                                  "callee_to_caller"):
                    if session.send_voice(direction, payload) == \
                            payload:
                        this_round += 1
            if this_round:
                # One bulk update per round: every frame of a round
                # reads the same round clock, so the totals and the
                # updated_at stamp equal a per-frame inc()'s.
                frames.add(this_round)
                frame_bytes.add(this_round * len(payload))
            delivered += this_round
        frame_clock["round"] = rounds
        return rounds, {
            "zones": zone_ids,
            "calls": len(sessions),
            "engine": cfg.execution,
            "frames_delivered": delivered,
        }

    def _run_scenario(self, until: Optional[float]) -> Tuple[int, Any]:
        from repro.scenario.engine import execute
        cfg = self.config
        scenario = cfg.scenario_def
        if until is not None and float(until) != scenario.horizon_s:
            scenario = scenario.with_horizon(float(until))
        outcome = execute(scenario, execution=cfg.execution,
                          scope=self.scope)
        return outcome.rounds_run, outcome
