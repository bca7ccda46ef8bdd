"""``event`` and ``batch-v2`` zones in lockstep under random scripts
(ROADMAP item 6 (b), first slice).

A hypothesis state machine drives two :class:`LiveZone`s built from the
same seed — one per engine, 8–12 clients on 4 channels behind 2 SPs —
through the same calls, voice, hang-ups, SP failures, overload
windows and rounds, and after every rule asserts that they agree on
what clients and the mix can see: each client's call state and
delivered voice, the call legs and their channels, the pairings, the
blocked count and the adversary's wire observations.  A refused call
must raise :class:`CallRefused` on both.

The mix rings a callee once its caller's GRANT has gone out
(``MixCallManager.process_round``); :class:`TestRingAfterRegrant` pins
what that means when a failover re-GRANT is queued before the callee
was rung.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.callmanager import CallState
from repro.simulation.live import CallRefused, LiveZone

ENGINES = ("event", "batch-v2")

#: Indices into a zone's clients, taken modulo its size.
_CLIENTS = st.integers(0, 11)


def _view(zone):
    """What the two engines must agree on after every rule (the wire's
    observations by count; all of them at the end)."""
    manager = zone.manager
    return ({client_id: (live.agent.state, live.agent.active_channel,
                         zone.received_by(client_id))
             for client_id, live in zone.clients.items()},
            {numeric: call.channel_id
             for numeric, call in manager.calls.items()},
            dict(manager.peers), manager.calls_blocked,
            zone.cells_deferred, len(zone.wire.observer.observations))


class ZonesInLockstep(RuleBasedStateMachine):
    @initialize(n_clients=st.integers(8, 12), seed=st.integers(0, 2 ** 16))
    def build(self, n_clients, seed):
        self.zones = [LiveZone(n_clients=n_clients, n_channels=4, n_sps=2,
                               k=2, seed=seed, execution=execution)
                      for execution in ENGINES]
        for zone in self.zones:
            zone.attach_wire()
            zone.start_call("client-0", "client-1")
        self.ids = sorted(self.zones[0].clients)
        self.said = 0

    def _client(self, index):
        return self.ids[index % len(self.ids)]

    def _party(self, index):
        """A party of a call if there is one, any client otherwise."""
        zone = self.zones[0]
        paired = [client_id for client_id in self.ids
                  if zone.clients[client_id].numeric_id
                  in zone.manager.peers]
        return (paired or self.ids)[index % len(paired or self.ids)]

    @rule(caller=_CLIENTS, callee=_CLIENTS)
    def start_call(self, caller, callee):
        caller, callee = self._client(caller), self._client(callee)
        zone = self.zones[0]
        refused = caller == callee or any(
            zone.clients[party].numeric_id in zone.manager.peers
            for party in (caller, callee))
        for zone in self.zones:
            if refused:
                with pytest.raises(CallRefused):
                    zone.start_call(caller, callee)
            else:
                zone.start_call(caller, callee)

    def say_as(self, client_id):
        self.said += 1
        for zone in self.zones:
            zone.say(client_id, b"cell-%d" % self.said)

    @rule(client=_CLIENTS)
    def say(self, client):
        self.say_as(self._party(client))

    @rule(client=_CLIENTS)
    def hang_up(self, client):
        client_id = self._party(client)
        for zone in self.zones:
            zone.hang_up(client_id)

    @precondition(lambda self: self.zones[0].sps)
    @rule(which=st.integers(0, 1))
    def fail_superpeer(self, which):
        sps = self.zones[0].sps
        sp_id = sps[which % len(sps)].sp_id
        records = [zone.fail_superpeer(sp_id) for zone in self.zones]
        assert records[0] == records[1]

    @rule(fraction=st.sampled_from([0.0, 0.25, 0.5]))
    def set_overload(self, fraction):
        for zone in self.zones:
            zone.set_overload(fraction)

    @rule()
    def clear_overload(self):
        for zone in self.zones:
            zone.clear_overload()

    @rule(rounds=st.integers(1, 3), talk=st.booleans())
    def step(self, rounds, talk):
        """``rounds`` rounds, each party of a call saying a cell a
        round if ``talk``."""
        for _ in range(rounds):
            for client_id in self.ids if talk else ():
                if self.zones[0].clients[client_id].numeric_id \
                        in self.zones[0].manager.peers:
                    self.say_as(client_id)
            for zone in self.zones:
                zone.step()

    @invariant()
    def engines_agree(self):
        event, batch = map(_view, self.zones)
        assert event == batch

    def teardown(self):
        event, batch = self.zones
        assert event.wire.observer.observations \
            == batch.wire.observer.observations


ZonesInLockstep.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None)
TestZonesInLockstep = ZonesInLockstep.TestCase


@pytest.mark.parametrize("execution", ENGINES)
class TestRingAfterRegrant:
    """The caller's GRANT went out, then its SP failed before the callee
    was rung: the callee rings once the re-GRANT has gone out too, a
    round later than the caller's agent alone would suggest."""

    def test_the_callee_rings_after_the_regrant(self, execution):
        zone = LiveZone(n_clients=16, n_channels=6, n_sps=3, k=2, seed=5,
                        execution=execution)
        zone.start_call("client-0", "client-1")
        zone.step()
        caller = zone.clients["client-0"]
        callee = zone.clients["client-1"]
        assert caller.agent.state is CallState.IN_CALL
        assert callee.numeric_id not in zone.manager.calls
        dead = zone._sp_of_channel[caller.agent.active_channel]
        [record] = zone.fail_superpeer(dead.sp_id)
        assert record.survived
        # The re-GRANT goes out; the callee is not rung yet.
        zone.step()
        assert caller.agent.active_channel == record.new_channel
        assert callee.numeric_id not in zone.manager.calls
        assert zone.state_of("client-1") is CallState.IDLE
        # The next round rings it, and voice flows both ways.
        zone.step()
        assert zone.state_of("client-1") is CallState.IN_CALL
        zone.say("client-0", b"to-callee")
        zone.say("client-1", b"to-caller")
        zone.run(2)
        assert zone.received_by("client-1")[-1][:9] == b"to-callee"
        assert zone.received_by("client-0")[-1][:9] == b"to-caller"
