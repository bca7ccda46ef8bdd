"""Two worlds, one wire: the wire's shape does not depend on who calls
whom (invariant I6, ROADMAP item 23 (a)).

Herd is constant-rate, so the check is exact, not statistical: one
zone shape and seed run in four worlds that differ only in their calls
— none, client-0 → client-1, client-2 → client-3, and both — and every
round's per-link multiset of cell sizes must be the same in all four,
on the client↔SP links and the SP↔mix links alike.  The tap is
test-local and implements only the required ``record`` level of the
tap protocol (:mod:`repro.netsim.taps`), so each plane offers it the
wire one cell at a time.
"""

from collections import Counter, defaultdict

import pytest

from repro.core.callmanager import CallState
from repro.simulation.live import LiveZone

#: The four worlds: the calls each one places before its first round.
WORLDS = {
    "no calls": [],
    "client-0 calls client-1": [("client-0", "client-1")],
    "client-2 calls client-3": [("client-2", "client-3")],
    "both calls": [("client-0", "client-1"), ("client-2", "client-3")],
}

#: Zone shape and rounds per engine: the socket plane at a small size.
SIZES = {
    "event": (dict(n_clients=10, n_channels=4, n_sps=2, k=2), 12),
    "batch-v2": (dict(n_clients=10, n_channels=4, n_sps=2, k=2), 12),
    "asyncio": (dict(n_clients=8, n_channels=4, n_sps=2, k=2), 8),
}


class ShapeTap:
    """Per round (its virtual time) and directed link, the multiset of
    cell sizes the wire carried."""

    def __init__(self):
        self.rounds = defaultdict(lambda: defaultdict(Counter))

    def record(self, time, cell, src, dst):
        self.rounds[time][(src, dst)][cell.size] += 1


def _run_world(engine, calls):
    """Run one world; return its tap's shapes and its zone."""
    sizes, rounds = SIZES[engine]
    zone = LiveZone(seed=3, execution=engine, **sizes)
    tap = ShapeTap()
    zone.attach_wire().add_tap(tap)
    for caller, callee in calls:
        zone.start_call(caller, callee)
    parties = [client for call in calls for client in call]
    for _ in range(rounds):
        for client_id in parties:
            if zone.state_of(client_id) is CallState.IN_CALL:
                zone.say(client_id, b"v" * 160)
        zone.step()
    zone.wire.finalize()
    return tap.rounds, zone


#: A node's tier, by the last part of its name.
TIERS = {"client": 0, "sp": 1, "mix": 2}


def _link_class(link):
    """``("client-sp" | "sp-mix", "up" | "down")`` of a directed link."""
    src, dst = (TIERS[name.rsplit("/", 1)[-1].split("-")[0]]
                for name in link)
    kind = {(0, 1): "client-sp", (1, 2): "sp-mix"}[min(src, dst),
                                                    max(src, dst)]
    return kind, "up" if src < dst else "down"


@pytest.mark.parametrize("engine", list(SIZES))
def test_every_round_has_one_shape_in_all_four_worlds(engine):
    shapes = {}
    for world, calls in WORLDS.items():
        shapes[world], zone = _run_world(engine, calls)
        for caller, callee in calls:
            assert zone.state_of(caller) is CallState.IN_CALL, world
            assert zone.state_of(callee) is CallState.IN_CALL, world
            assert zone.received_by(caller), world
            assert zone.received_by(callee), world
    baseline = shapes["no calls"]
    assert len(baseline) == SIZES[engine][1]
    assert {_link_class(link) for links in baseline.values()
            for link in links} == {(kind, way)
                                   for kind in ("client-sp", "sp-mix")
                                   for way in ("up", "down")}
    for world, seen in shapes.items():
        assert sorted(seen) == sorted(baseline), world
        for time in sorted(baseline):
            links = baseline[time].keys() | seen[time].keys()
            differing = {link for link in links
                         if baseline[time].get(link) != seen[time].get(link)}
            assert not differing, (
                f"{engine}: {world} differs from no calls at t={time} "
                f"on {sorted(differing)}")
