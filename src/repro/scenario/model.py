"""The scenario model: what a composed-adversity run is made of.

Everything here is a frozen dataclass with validation in
``__post_init__`` raising :class:`ScenarioError` with a message that
names the offending field and the allowed values — the loader adds
file/section context on top, so a bad TOML line fails with an error a
user can act on without reading this source.

A scenario's :meth:`Scenario.signature` is a content hash over every
field that affects the run; together with the seed it identifies a
deterministic execution (two runs with equal signatures and engines
produce equal :meth:`~repro.scenario.report.ScenarioReport
.determinism_key`, and the key is *also* pinned across engines).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Tuple

from repro.core.retry import BackoffPolicy
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

#: Zone ids of the scenario deployment.
LIVE_ZONE = "zone-live"
CTL_ZONE = "zone-ctl"

WORKLOAD_KINDS = ("constant", "flash_crowd", "poisson")
ADVERSARY_KINDS = ("none", "wiretap", "sybil_sp")
CHURN_ACTIONS = ("client_join", "client_leave")

#: Fault kinds whose bare targets (``sp-1``) live in the data-plane
#: zone; mix crashes hit the control zone (the live zone's single mix
#: carries the data plane — crashing it would just stop the run).
_LIVE_TARGET_KINDS = frozenset({
    FaultKind.SP_CRASH, FaultKind.LINK_DEGRADE, FaultKind.LINK_PARTITION,
    FaultKind.LOSS_BURST, FaultKind.JITTER_BURST,
})


class ScenarioError(ValueError):
    """A scenario failed validation; the message is actionable."""


@dataclass
class RejoinStats:
    """One orphaned client's backoff-driven re-join."""

    client_id: str
    orphaned_at_s: float
    rejoined_at_s: Optional[float]
    attempts: int
    backoff_s: float

    @property
    def latency_s(self) -> Optional[float]:
        if self.rejoined_at_s is None:
            return None
        return self.rejoined_at_s - self.orphaned_at_s


def expand_target(kind: FaultKind, target: str) -> str:
    """Expand a bare TOML target to a deployment id.

    ``sp-1`` → ``zone-live/sp-1`` for SP/link kinds, ``mix-0`` →
    ``zone-ctl/mix-0`` for mix crashes, ``live``/``ctl`` → the zone id
    for directory stalls; anything containing ``/`` (or ``zone`` for
    OVERLOAD) passes through untouched.
    """
    if "/" in target:
        return target
    if kind is FaultKind.DIRECTORY_STALL:
        return {"live": LIVE_ZONE, "ctl": CTL_ZONE}.get(target, target)
    if kind is FaultKind.OVERLOAD:
        return target  # "zone" (zone-wide) or a full SP id
    if kind is FaultKind.MIX_CRASH:
        return f"{CTL_ZONE}/{target}"
    if kind in _LIVE_TARGET_KINDS:
        return f"{LIVE_ZONE}/{target}"
    return target


@dataclass(frozen=True)
class ZoneShape:
    """Topology of the scenario deployment: one data-plane zone
    (``zone-live``: 1 mix, ``n_sps`` SPs, ``n_clients`` clients on
    ``n_channels`` channels) plus a control zone (``zone-ctl``: 2
    mixes, ``n_direct_clients`` direct clients) that mix-crash,
    directory-stall, and churn events exercise."""

    n_clients: int = 12
    n_channels: int = 6
    n_sps: int = 2
    k: int = 3
    n_direct_clients: int = 6
    client_prefix: str = "live"

    def __post_init__(self):
        if self.n_clients < 2:
            raise ScenarioError("zone.n_clients must be >= 2")
        if self.n_channels < 1:
            raise ScenarioError("zone.n_channels must be >= 1")
        if not 1 <= self.n_sps <= self.n_channels:
            raise ScenarioError(
                f"zone.n_sps must be in [1, n_channels={self.n_channels}]"
                f", not {self.n_sps}")
        if not 1 <= self.k <= self.n_channels:
            raise ScenarioError(
                f"zone.k must be in [1, n_channels={self.n_channels}], "
                f"not {self.k}")
        if self.n_direct_clients < 0:
            raise ScenarioError("zone.n_direct_clients cannot be "
                                "negative")


@dataclass(frozen=True)
class Workload:
    """Call arrival pattern on the live zone.

    * ``constant`` — ``call_pairs`` concurrent calls start at
      ``call_start_s`` and run to the horizon.
    * ``flash_crowd`` — the constant base plus ``spike_pairs`` extra
      calls all arriving at ``spike_at_s`` (a §4.1.6-style load spike).
    * ``poisson`` — seeded Poisson arrivals at ``arrival_rate_per_s``
      between idle clients, each held for ``call_hold_s`` then hung up.
    """

    kind: str = "constant"
    call_pairs: int = 1
    call_start_s: float = 0.5
    spike_at_s: float = 0.0
    spike_pairs: int = 0
    arrival_rate_per_s: float = 0.0
    call_hold_s: float = 0.0

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioError(
                f"workload.kind must be one of {WORKLOAD_KINDS}, not "
                f"{self.kind!r}")
        if self.call_pairs < 0 or self.spike_pairs < 0:
            raise ScenarioError("workload pair counts cannot be "
                                "negative")
        if self.call_start_s < 0 or self.spike_at_s < 0:
            raise ScenarioError("workload times cannot be negative")
        if self.kind == "flash_crowd" and self.spike_pairs < 1:
            raise ScenarioError(
                "workload.kind='flash_crowd' needs spike_pairs >= 1 "
                "(otherwise use kind='constant')")
        if self.kind == "poisson" and self.arrival_rate_per_s <= 0:
            raise ScenarioError(
                "workload.kind='poisson' needs arrival_rate_per_s > 0")
        if self.arrival_rate_per_s < 0 or self.call_hold_s < 0:
            raise ScenarioError("workload rates/holds cannot be "
                                "negative")


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled join/leave against the control zone's clients."""

    at_s: float
    action: str
    count: int = 1

    def __post_init__(self):
        if self.action not in CHURN_ACTIONS:
            raise ScenarioError(
                f"churn action must be one of {CHURN_ACTIONS}, not "
                f"{self.action!r}")
        if self.at_s < 0:
            raise ScenarioError("churn.at_s cannot be negative")
        if self.count < 1:
            raise ScenarioError("churn.count must be >= 1")


@dataclass(frozen=True)
class Adversary:
    """Adversary selection.

    * ``none`` — no observer.
    * ``wiretap`` — the zone's wire plane is materialized and every
      link tapped by a global passive observer; the observation stream
      (byte-identical across engines) is digested into the report.
    * ``sybil_sp`` — a Sybil campaign: the listed SPs deliver degraded
      service (``loss``/``jitter_ms`` for ``duration_s`` from
      ``at_s``) until the mix's :class:`~repro.core.blacklist
      .SPMonitor` evicts them — compiled into ``LINK_DEGRADE`` faults.
    """

    kind: str = "none"
    targets: Tuple[str, ...] = ()
    at_s: float = 1.0
    duration_s: float = 4.0
    loss: float = 0.30
    jitter_ms: float = 80.0

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ScenarioError(
                f"adversary.kind must be one of {ADVERSARY_KINDS}, "
                f"not {self.kind!r}")
        if self.kind == "sybil_sp" and not self.targets:
            raise ScenarioError(
                "adversary.kind='sybil_sp' needs targets = ['sp-1', "
                "...] naming the compromised SPs")
        if self.at_s < 0 or self.duration_s <= 0:
            raise ScenarioError("adversary window must be positive")


@dataclass(frozen=True)
class SurvivalCriteria:
    """What the scenario must demonstrate to pass.

    Unset bounds (``None`` / 0 / empty) are not checked.  Evaluated by
    :meth:`repro.scenario.report.ScenarioReport.criteria_failures`.
    """

    min_call_survival_rate: float = 0.0
    max_dropped_failovers: Optional[int] = None
    require_all_rejoined: bool = False
    max_rejoin_latency_s: Optional[float] = None
    require_shedding: bool = False
    require_blacklist: Tuple[str, ...] = ()
    min_call_legs_established: int = 0

    def __post_init__(self):
        if not 0.0 <= self.min_call_survival_rate <= 1.0:
            raise ScenarioError(
                "criteria.min_call_survival_rate must be in [0, 1]")
        if self.max_dropped_failovers is not None and \
                self.max_dropped_failovers < 0:
            raise ScenarioError(
                "criteria.max_dropped_failovers cannot be negative")
        if self.max_rejoin_latency_s is not None and \
                self.max_rejoin_latency_s <= 0:
            raise ScenarioError(
                "criteria.max_rejoin_latency_s must be positive")
        if self.min_call_legs_established < 0:
            raise ScenarioError(
                "criteria.min_call_legs_established cannot be negative")


def default_rejoin_policy() -> BackoffPolicy:
    # The §3.5 acceptance scenario's re-join policy.
    return BackoffPolicy(base_delay_s=0.25, multiplier=2.0,
                         max_delay_s=2.0, max_attempts=8, jitter=0.1)


@dataclass(frozen=True)
class Scenario:
    """One declarative, seed-replayable composed-adversity scenario."""

    name: str
    description: str = ""
    seed: int = 20150817
    horizon_s: float = 6.0
    round_interval_s: float = 0.05
    sample_interval_s: float = 0.25
    zone: ZoneShape = field(default_factory=ZoneShape)
    workload: Workload = field(default_factory=Workload)
    churn: Tuple[ChurnEvent, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    adversary: Adversary = field(default_factory=Adversary)
    rejoin_policy: BackoffPolicy = field(
        default_factory=default_rejoin_policy)
    criteria: SurvivalCriteria = field(
        default_factory=SurvivalCriteria)

    def __post_init__(self):
        if not self.name:
            raise ScenarioError("scenario needs a name")
        if self.horizon_s <= 0:
            raise ScenarioError("horizon_s must be positive")
        if self.round_interval_s <= 0 or self.sample_interval_s <= 0:
            raise ScenarioError("intervals must be positive")
        total_pairs = self.workload.call_pairs + \
            self.workload.spike_pairs
        if 2 * total_pairs > self.zone.n_clients:
            raise ScenarioError(
                f"workload needs {2 * total_pairs} clients for "
                f"{total_pairs} call pair(s) but zone.n_clients is "
                f"{self.zone.n_clients}")

    def validate(self) -> None:
        """Reachability checks for *declared* scenarios: every
        scheduled fault/churn/spike must fire inside the horizon.

        Deliberately not part of ``__post_init__``: truncating a run
        programmatically (``Simulation.run(until=...)``) may legally
        cut events off; a corpus TOML declaring an unreachable event
        is a mistake, so the loader and ``repro scenario validate``
        call this.  The Sybil campaign's compiled faults count: it is
        the whole :meth:`plan` that must fit."""
        for spec in self.plan():
            if spec.at_s >= self.horizon_s:
                raise ScenarioError(
                    f"fault {spec.kind.value}@{spec.at_s}s fires after "
                    f"the {self.horizon_s}s horizon — it would never "
                    "run")
        for event in self.churn:
            if event.at_s >= self.horizon_s:
                raise ScenarioError(
                    f"churn event at {event.at_s}s fires after the "
                    f"{self.horizon_s}s horizon")
        if self.workload.kind == "flash_crowd" and \
                self.workload.spike_at_s >= self.horizon_s:
            raise ScenarioError(
                "workload.spike_at_s fires after the horizon")

    # -- derived --------------------------------------------------------------

    def with_horizon(self, horizon_s: float) -> "Scenario":
        return replace(self, horizon_s=horizon_s)

    def plan(self) -> FaultPlan:
        """The scenario's full fault plan: declared faults plus the
        Sybil campaign's compiled degradations."""
        specs = list(self.faults)
        if self.adversary.kind == "sybil_sp":
            for target in self.adversary.targets:
                specs.append(FaultSpec(
                    kind=FaultKind.LINK_DEGRADE,
                    at_s=self.adversary.at_s,
                    target=expand_target(FaultKind.LINK_DEGRADE,
                                         target),
                    duration_s=self.adversary.duration_s,
                    loss=self.adversary.loss,
                    jitter_ms=self.adversary.jitter_ms))
        return FaultPlan(specs)

    def to_dict(self) -> dict:
        """A canonical, JSON-serializable view of every field that
        affects execution (enum kinds flattened to their values)."""
        data = asdict(self)
        data["faults"] = [
            {**asdict(s), "kind": s.kind.value} for s in self.faults]
        return data

    def signature(self) -> str:
        """Content hash identifying the scenario definition."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
