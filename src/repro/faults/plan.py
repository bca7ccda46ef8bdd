"""Declarative, replayable fault plans.

Herd's availability story (§3.1, §3.5, §3.6.4) is exercised by
*injecting* the failures the paper talks about — mix crashes, SP
crashes, degraded or partitioned SP links, loss/jitter bursts — at
precise virtual times.  A :class:`FaultPlan` is a sorted, immutable
schedule of :class:`FaultSpec` entries; compiled onto a
:class:`~repro.netsim.engine.EventLoop` it replays bit-for-bit, so the
same seed and plan always produce the same fault timeline (the
determinism contract the chaos benchmarks assert).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple


class FaultKind(Enum):
    """The fault classes of the Herd failure model."""

    MIX_CRASH = "mix_crash"
    SP_CRASH = "sp_crash"
    LINK_DEGRADE = "link_degrade"
    LINK_PARTITION = "link_partition"
    LOSS_BURST = "loss_burst"
    JITTER_BURST = "jitter_burst"
    #: Load spike beyond provisioned capacity: the data plane sheds
    #: payload admission (chaff fills the wire, so the adversary sees
    #: nothing) and clients back-pressure deferred cells.
    OVERLOAD = "overload"
    #: The zone directory stops answering: joins and re-joins fail
    #: until the window ends; clients back off via their retry policy.
    DIRECTORY_STALL = "directory_stall"


#: Kinds that feed the SP monitor bad samples for a window and must
#: revert.
_DEGRADATION_KINDS = frozenset({
    FaultKind.LINK_DEGRADE,
    FaultKind.LINK_PARTITION,
    FaultKind.LOSS_BURST,
    FaultKind.JITTER_BURST,
})

#: Kinds that are only meaningful as a bounded window (must carry a
#: ``duration_s``): the degradations plus the graceful-degradation
#: kinds, which engage shedding/backpressure and must release it.
_WINDOWED_KINDS = _DEGRADATION_KINDS | frozenset({
    FaultKind.OVERLOAD,
    FaultKind.DIRECTORY_STALL,
})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        The fault class.
    at_s:
        Virtual time at which the fault strikes.
    target:
        Mix id, SP id, or zone id, depending on ``kind``.
    duration_s:
        For degradations: how long the condition lasts (required).
        For crashes: time until recovery; ``None`` means the component
        stays down for the rest of the run.
    loss, jitter_ms:
        Degradation severity, fed to the
        :class:`~repro.core.blacklist.SPMonitor`.
    detection_delay_s:
        For ``MIX_CRASH``: how long the directory keeps redirecting
        joins to the dead mix before pruning it (an *unclean* crash;
        0 means the crash is detected instantly).
    capacity_fraction:
        For ``OVERLOAD``: the fraction of per-channel payload slots
        still admitted per round while the overload lasts (0 = full
        backpressure, every payload cell deferred; 1 = no shedding).
    """

    kind: FaultKind
    at_s: float
    target: str
    duration_s: Optional[float] = None
    loss: float = 0.0
    jitter_ms: float = 0.0
    detection_delay_s: float = 0.0
    capacity_fraction: float = 0.5

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError("fault time cannot be negative")
        if not self.target:
            raise ValueError("fault needs a target")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration must be positive when given")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be in [0, 1]")
        if self.jitter_ms < 0:
            raise ValueError("jitter cannot be negative")
        if self.detection_delay_s < 0:
            raise ValueError("detection delay cannot be negative")
        if not 0.0 <= self.capacity_fraction <= 1.0:
            raise ValueError("capacity_fraction must be in [0, 1]")
        if self.kind in _WINDOWED_KINDS and self.duration_s is None:
            raise ValueError(
                f"{self.kind.value} needs a duration_s window")

    def key(self) -> Tuple[str, str, float]:
        """Stable identity for bookkeeping (degrade handles etc.)."""
        return (self.kind.value, self.target, self.at_s)


class FaultPlan:
    """An immutable, time-sorted schedule of faults."""

    def __init__(self, specs: Sequence[FaultSpec]):
        self.specs: Tuple[FaultSpec, ...] = tuple(sorted(
            specs, key=lambda s: (s.at_s, s.kind.value, s.target)))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def signature(self) -> str:
        """Content hash of the plan — two runs with equal signatures
        (and equal seeds) must produce identical fault timelines."""
        digest = hashlib.sha256()
        for spec in self.specs:
            digest.update(repr((
                spec.kind.value, spec.at_s, spec.target, spec.duration_s,
                spec.loss, spec.jitter_ms, spec.detection_delay_s,
                spec.capacity_fraction,
            )).encode())
        return digest.hexdigest()

    def compile_onto(self, loop, injector) -> List[object]:
        """Schedule every fault's onset on the loop.  Revert/recovery
        events are scheduled by the injector when the fault strikes.
        Returns the onset event handles (cancellable)."""
        handles = []
        for spec in self.specs:
            handles.append(loop.schedule_at(
                spec.at_s,
                lambda s=spec: injector.apply(s)))
        return handles
