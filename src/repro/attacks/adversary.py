"""Global and local adversaries over a simulated deployment (§3).

"We assume an adversary who seeks to infer the IP addresses of the
caller and callee of calls made via Herd [...] The adversary is able to
observe the time series of encrypted traffic on all Herd links as part
of a global, passive traffic analysis attack.  Within a portion of the
Internet controlled by the adversary, he can additionally compromise
mixes and network components [...] and modify the time series of
encrypted traffic as part of a local, active traffic analysis attack."

:class:`GlobalPassiveAdversary` taps every link of a deployment with a
single :class:`~repro.netsim.observer.LinkObserver` and offers the
binned per-link series the attacks consume; :class:`ActiveAdversary`
additionally perturbs links it controls (drop/delay), for the I7
experiments.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.netsim.link import Link
from repro.netsim.observer import LinkObserver


class GlobalPassiveAdversary:
    """Taps all given links; sees only wire-visible metadata."""

    def __init__(self, links: Optional[Iterable[Link]] = None):
        self.observer = LinkObserver("global-passive")
        self._links: List[Link] = []
        for link in links or []:
            self.tap(link)

    def tap(self, link: Link) -> None:
        link.add_observer(self.observer)
        self._links.append(link)

    def link_series(self, bin_width: float
                    ) -> Dict[str, Dict[int, int]]:
        """Binned byte series for every directed link, keyed
        "src->dst"."""
        out = {}
        for src, dst in self.observer.directed_pairs():
            out[f"{src}->{dst}"] = self.observer.time_series(
                src, dst, bin_width)
        return out


class ActiveAdversary(GlobalPassiveAdversary):
    """A local, active adversary: can also degrade links it controls."""

    def __init__(self, links: Optional[Iterable[Link]] = None):
        super().__init__(links)
        self.controlled: List[Link] = []

    def compromise(self, link: Link) -> None:
        self.controlled.append(link)

    def inject_loss(self, loss_rate: float) -> None:
        """Drop packets on every controlled link."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        for link in self.controlled:
            link.loss_rate = loss_rate

    def inject_delay(self, extra_owd: float) -> None:
        """Delay packets on every controlled link."""
        if extra_owd < 0:
            raise ValueError("delay cannot be negative")
        for link in self.controlled:
            link.one_way_delay += extra_owd
