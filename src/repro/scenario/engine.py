"""Executing a :class:`~repro.scenario.model.Scenario`.

:func:`execute` compiles a scenario onto one live data-plane zone
plus a control zone on a seeded :class:`~repro.netsim.engine
.EventLoop` and returns a :class:`ScenarioOutcome`.  It is the only
fault-driven runner: the base path (constant workload, no churn, no
adversary) is the §3.5/§3.6.4 acceptance scenario — a mix crash whose
orphans re-join with backoff, an SP lost mid-call whose legs fail
over — and the composition axes (flash crowds, Poisson arrivals,
churn, overload windows, wiretaps) only add *new* scheduled events
when configured, so an unconfigured axis cannot perturb a run.

Graceful degradation is wired here: ``OVERLOAD`` windows install a
:class:`~repro.core.shedding.LoadShedder` on the zone (constant wire
rate, client backpressure), and ``DIRECTORY_STALL`` windows make joins
fail with :class:`~repro.core.directory.DirectoryStalledError` so
churn joins and orphan re-joins back off through their
:class:`~repro.core.retry.LoopRetry` policies instead of spinning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.blacklist import SPMonitor
from repro.core.callmanager import CallState, FailoverRecord
from repro.core.invariants import sp_state_is_activity_free
from repro.core.join import join_zone
from repro.core.retry import LoopRetry
from repro.faults.injector import FaultInjector, TimelineEntry
from repro.faults.plan import FaultSpec
from repro.netsim.engine import EventLoop
from repro.scenario.model import (
    CTL_ZONE,
    LIVE_ZONE,
    RejoinStats,
    Scenario,
)
from repro.simulation.churn import fail_superpeer
from repro.simulation.live import LiveZone
from repro.simulation.testbed import build_testbed
from repro.workload.arrivals import poisson_arrival_times


@dataclass
class ScenarioOutcome:
    """Everything one scenario execution produced (engine-level; the
    :class:`~repro.scenario.report.ScenarioReport` wraps this with
    metrics, criteria evaluation, and the determinism key)."""

    plan_signature: str
    timeline: List[TimelineEntry]
    events_processed: int
    rounds_run: int
    call_legs_established: int
    failovers: List[FailoverRecord]
    rejoins: List[RejoinStats]
    #: client id → voice cells received *after* its leg failed over.
    post_failover_voice: Dict[str, int]
    blacklisted_sps: Tuple[str, ...]
    #: graceful-degradation accounting (overload windows).
    shed_stats: Dict[str, int] = field(default_factory=dict)
    #: workload accounting (constant pairs + spikes + Poisson).
    calls_started: int = 0
    calls_completed: int = 0
    calls_blocked: int = 0
    #: churn accounting against the control zone.
    churn_stats: Dict[str, int] = field(default_factory=dict)
    #: the wiretap adversary's view (None without a wiretap):
    #: ``observations`` are engine-invariant; the ``*_processed``
    #: cost stats beside them are allowed to differ per engine.
    wiretap: Optional[Dict[str, object]] = None
    #: host-network side channel of the real-network plane (None on
    #: simulator transports): datagram accounting and wall-clock
    #: latency.  Never part of any determinism surface —
    #: :func:`~repro.scenario.report.outcome_fingerprint` must not
    #: fold it in.
    net: Optional[Dict[str, object]] = None
    invariant_violations: Tuple[str, ...] = ()

    # -- derived survival metrics -------------------------------------------

    @property
    def survived_failovers(self) -> List[FailoverRecord]:
        return [r for r in self.failovers if r.survived]

    @property
    def dropped_failovers(self) -> List[FailoverRecord]:
        return [r for r in self.failovers if not r.survived]

    @property
    def call_survival_rate(self) -> float:
        if not self.failovers:
            return 1.0
        return len(self.survived_failovers) / len(self.failovers)

    @property
    def all_rejoined(self) -> bool:
        return bool(self.rejoins) and \
            all(r.rejoined_at_s is not None for r in self.rejoins)

    @property
    def rejoin_latencies(self) -> List[float]:
        return [r.latency_s for r in self.rejoins
                if r.latency_s is not None]

    @property
    def cells_deferred(self) -> int:
        return self.shed_stats.get("cells_deferred", 0)

    @property
    def shedding_engaged(self) -> bool:
        return self.cells_deferred > 0

    @property
    def mid_call_failover_demonstrated(self) -> bool:
        return any(self.post_failover_voice.get(cid, 0) > 0
                   for cid in self.post_failover_voice)


def _sp_scope_of(spec: FaultSpec) -> Optional[str]:
    """An OVERLOAD spec's shedding scope: zone-wide (``zone`` or the
    zone id) or one SP."""
    if spec.target in ("zone", LIVE_ZONE):
        return None
    return spec.target


def execute(scenario: Scenario, *, execution: str = "event",
            scope=None) -> ScenarioOutcome:
    """Run one scenario end to end on the given execution engine
    (any name registered with :mod:`repro.execution`).

    ``scope`` is an optional :class:`repro.obs.instrument.Herdscope`
    wired into the loop, zone, and injector (metrics + traces).
    """
    shape = scenario.zone
    plan = scenario.plan()
    loop = EventLoop(seed=scenario.seed)
    bed = build_testbed([(LIVE_ZONE, "dc-live", 1),
                         (CTL_ZONE, "dc-ctl", 2)], seed=scenario.seed)
    zone = LiveZone(n_clients=shape.n_clients,
                    n_channels=shape.n_channels, k=shape.k,
                    n_sps=shape.n_sps, seed=scenario.seed, bed=bed,
                    zone_id=LIVE_ZONE,
                    client_prefix=shape.client_prefix,
                    execution=execution)
    for i in range(shape.n_direct_clients):
        bed.add_client(f"ctl-{i}", CTL_ZONE)

    monitor = SPMonitor()
    injector = FaultInjector(bed, loop, monitor=monitor,
                             sample_interval_s=scenario.sample_interval_s)
    if scope is not None:
        scope.attach_loop(loop)
        scope.attach_live_zone(zone)
        scope.attach_injector(injector)

    rejoins: List[RejoinStats] = []
    post_failover_voice: Dict[str, int] = {}
    voice_snapshot: Dict[str, int] = {}
    counts = {"started": 0, "completed": 0, "blocked": 0}
    churn_stats = {"joined": 0, "left": 0, "join_gave_up": 0}

    def note_failovers(records: List[FailoverRecord]) -> None:
        for record in records:
            live = zone.pool.by_numeric.get(record.numeric_id)
            client_id = live.client.client_id if live else "?"
            if record.survived:
                injector.record(
                    "failover", "call", client_id,
                    f"ch{record.old_channel}->ch{record.new_channel}")
                voice_snapshot[client_id] = \
                    len(zone.received_by(client_id))
            else:
                injector.record("dropped", "call", client_id,
                                f"ch{record.old_channel} lost, no free "
                                "surviving channel")

    # -- SP crash → mid-call failover on the live data plane ----------------
    def on_sp_crash(spec: FaultSpec, affected: List[str]) -> None:
        sp = injector.failed_sps.get(spec.target)
        if sp is None or not spec.target.startswith(LIVE_ZONE + "/"):
            return
        note_failovers(zone.absorb_superpeer_failure(sp))

    injector.on_sp_crash.append(on_sp_crash)

    # -- degraded SP → blacklisted by the monitor → same failover path ------
    def on_blacklist(sp_id: str) -> None:
        injector.record("blacklisted", "sp_quality", sp_id,
                        "loss/jitter standard violated")
        sp = bed.superpeers.get(sp_id)
        if sp is None or not sp_id.startswith(LIVE_ZONE + "/"):
            return
        fail_superpeer(bed, sp_id)
        note_failovers(zone.absorb_superpeer_failure(sp))

    monitor.on_blacklist_sp = on_blacklist

    # -- mix crash → orphans re-join through surviving mixes with backoff ---
    def on_mix_crash(spec: FaultSpec, orphans: List[str]) -> None:
        orphaned_at = loop.now
        for cid in orphans:
            if cid in zone.clients:
                continue  # live-zone clients are not re-joined directly
            client = bed.clients[cid]

            def rejoin(client=client):
                return join_zone(client,
                                 bed.directories[client.zone_id],
                                 bed.mixes, rng=bed.rng)

            stats = RejoinStats(client_id=cid,
                                orphaned_at_s=orphaned_at,
                                rejoined_at_s=None, attempts=0,
                                backoff_s=0.0)
            rejoins.append(stats)

            def finish(task: LoopRetry, stats=stats) -> None:
                stats.attempts = task.attempts
                stats.backoff_s = task.backoff_s
                if task.succeeded:
                    stats.rejoined_at_s = task.finished_at
                    injector.record("rejoined", "client",
                                    stats.client_id,
                                    f"attempts={task.attempts}")
                else:
                    injector.record("gave_up", "client",
                                    stats.client_id,
                                    f"attempts={task.attempts}")

            LoopRetry(loop=loop, fn=rejoin,
                      policy=scenario.rejoin_policy, rng=bed.rng,
                      retry_on=(KeyError, RuntimeError, ValueError),
                      on_success=finish, on_give_up=finish,
                      start_delay_s=scenario.rejoin_policy.base_delay_s
                      / 2)

    injector.on_mix_crash.append(on_mix_crash)

    # -- OVERLOAD window → load shedding + client backpressure --------------
    def on_overload(spec: FaultSpec, opening: bool) -> None:
        if opening:
            zone.set_overload(spec.capacity_fraction,
                              sp_id=_sp_scope_of(spec))
        else:
            shedder = zone.shedder
            if shedder is not None:
                injector.record(
                    "shed", spec.kind.value, spec.target,
                    f"admitted={shedder.cells_admitted} "
                    f"deferred={shedder.cells_deferred}")
            zone.clear_overload()

    injector.on_overload.append(on_overload)

    # -- the passive adversary ----------------------------------------------
    tapped = scenario.adversary.kind == "wiretap"
    zone.tap_wire(tapped)

    plan.compile_onto(loop, injector)

    # -- the data plane: rounds as periodic events, calls as one-shots ------
    granted: set = set()

    def tick() -> None:
        for live in zone.clients.values():
            agent = live.agent
            if agent.state is CallState.IN_CALL:
                granted.add(live.client.client_id)
                zone.say(live.client.client_id,
                         f"v{zone.round_index}".encode())
        zone.step()

    zone_handle = loop.schedule_periodic(scenario.round_interval_s,
                                         tick, start_delay=0.0)

    workload = scenario.workload
    prefix = shape.client_prefix

    def start_pair(caller: str, callee: str) -> None:
        zone.start_call(caller, callee)
        counts["started"] += 1

    pairs = [(f"{prefix}-{2 * i}", f"{prefix}-{2 * i + 1}")
             for i in range(workload.call_pairs)]
    for caller, callee in pairs:
        loop.schedule_at(workload.call_start_s,
                         lambda c=caller, p=callee: start_pair(c, p))

    # -- composition axes: each schedules events only when configured ------
    if workload.kind == "flash_crowd":
        base = workload.call_pairs
        spike = [(f"{prefix}-{2 * (base + i)}",
                  f"{prefix}-{2 * (base + i) + 1}")
                 for i in range(workload.spike_pairs)]
        for caller, callee in spike:
            loop.schedule_at(
                workload.spike_at_s,
                lambda c=caller, p=callee: start_pair(c, p))

    if workload.kind == "poisson":
        def hang_up(client_id: str) -> None:
            live = zone.clients[client_id]
            if live.numeric_id in zone.manager.peers:
                zone.hang_up(client_id)
                counts["completed"] += 1

        def poisson_call() -> None:
            idle = [cid for cid in sorted(zone.clients)
                    if zone.clients[cid].agent.state is CallState.IDLE
                    and zone.clients[cid].numeric_id
                    not in zone.manager.peers]
            if len(idle) < 2:
                counts["blocked"] += 1
                injector.record("blocked", "call", "poisson",
                                "no idle client pair")
                return
            caller, callee = idle[0], idle[1]
            start_pair(caller, callee)
            if workload.call_hold_s > 0:
                loop.schedule(workload.call_hold_s,
                              lambda c=caller: hang_up(c))

        for t in poisson_arrival_times(workload.arrival_rate_per_s,
                                       workload.call_start_s,
                                       scenario.horizon_s,
                                       scenario.seed):
            loop.schedule_at(t, poisson_call)

    if scenario.churn:
        next_ctl = {"index": shape.n_direct_clients}

        def churn_join(n: int) -> None:
            for _ in range(n):
                cid = f"ctl-{next_ctl['index']}"
                next_ctl["index"] += 1

                def join(cid=cid):
                    return bed.add_client(cid, CTL_ZONE)

                def finish(task: LoopRetry, cid=cid) -> None:
                    if task.succeeded:
                        churn_stats["joined"] += 1
                        injector.record("churn_joined", "client", cid,
                                        f"attempts={task.attempts}")
                    else:
                        churn_stats["join_gave_up"] += 1
                        injector.record("churn_gave_up", "client", cid,
                                        f"attempts={task.attempts}")

                LoopRetry(loop=loop, fn=join,
                          policy=scenario.rejoin_policy, rng=bed.rng,
                          retry_on=(KeyError, RuntimeError,
                                    ValueError),
                          on_success=finish, on_give_up=finish,
                          start_delay_s=0.0)

        def churn_leave(n: int) -> None:
            joined = [cid for cid in sorted(bed.clients)
                      if cid.startswith("ctl-")
                      and bed.clients[cid].joined]
            for cid in joined[:n]:
                bed.clients[cid].leave()
                churn_stats["left"] += 1
                injector.record("churn_left", "client", cid)

        for event in scenario.churn:
            action = churn_join if event.action == "client_join" \
                else churn_leave
            loop.schedule_at(event.at_s,
                             lambda a=action, n=event.count: a(n))

    loop.run(until=scenario.horizon_s)
    zone_handle.cancel()
    injector.teardown()
    loop.cancel_all()

    # Fold a still-open overload window (window extends past the
    # horizon) so shed_stats is complete.
    if zone.shedder is not None:
        zone.clear_overload()

    for client_id, before in voice_snapshot.items():
        post_failover_voice[client_id] = \
            len(zone.received_by(client_id)) - before

    violations = []
    for sp in zone.sps:
        if not sp_state_is_activity_free(sp):
            violations.append(
                f"I8: SP {sp.sp_id} state encodes call activity")
    for earlier, later in zip(injector.timeline,
                              injector.timeline[1:]):
        if later.time_s < earlier.time_s:
            violations.append(
                "timeline: virtual time went backwards at "
                f"{later.action}/{later.target}")
            break

    wiretap, net = zone.wire_readout(tapped)

    return ScenarioOutcome(
        plan_signature=plan.signature(),
        timeline=list(injector.timeline),
        events_processed=loop.events_processed,
        rounds_run=zone.round_index,
        call_legs_established=len(granted),
        failovers=list(zone.manager.failovers),
        rejoins=rejoins,
        post_failover_voice=post_failover_voice,
        blacklisted_sps=tuple(sorted(monitor.blacklisted_sps)),
        shed_stats=dict(zone.shed_stats),
        calls_started=counts["started"],
        calls_completed=counts["completed"],
        calls_blocked=counts["blocked"],
        churn_stats=churn_stats,
        wiretap=wiretap,
        net=net,
        invariant_violations=tuple(violations),
    )
