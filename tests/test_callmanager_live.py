"""Integration tests: call manager, signaling, and the live zone."""

import pytest

from repro.core.callmanager import CallState, MixCallManager
from repro.core.invariants import sp_state_is_activity_free
from repro.simulation.live import CallRefused, LiveZone


def _zone(**kwargs):
    defaults = dict(n_clients=12, n_channels=4, k=2, seed=5)
    defaults.update(kwargs)
    return LiveZone(**defaults)


class TestCallManagerBasics:
    def test_requires_channels(self):
        from repro.simulation.testbed import build_testbed
        bed = build_testbed([("zone-EU", "dc-eu", 1)])
        with pytest.raises(ValueError):
            MixCallManager(bed.mixes["zone-EU/mix-0"])

    def test_signal_allocates_channel(self):
        zone = _zone()
        live = zone.clients["client-0"]
        call = zone.manager.handle_signal(live.numeric_id)
        assert call is not None
        assert call.channel_id in \
            dict.fromkeys(a.channel_id for a in live.client.attachments)
        assert zone.mix.channels[call.channel_id].is_busy

    def test_duplicate_signal_idempotent(self):
        zone = _zone()
        live = zone.clients["client-0"]
        first = zone.manager.handle_signal(live.numeric_id)
        second = zone.manager.handle_signal(live.numeric_id)
        assert first is second

    def test_incoming_blocked_when_busy(self):
        zone = _zone()
        live = zone.clients["client-0"]
        zone.manager.handle_signal(live.numeric_id)
        assert zone.manager.place_incoming(live.numeric_id) is None
        assert zone.manager.calls_blocked == 1

    def test_end_call_frees_channel(self):
        zone = _zone()
        live = zone.clients["client-0"]
        call = zone.manager.handle_signal(live.numeric_id)
        zone.manager.end_call(live.numeric_id)
        assert not zone.mix.channels[call.channel_id].is_busy
        assert live.numeric_id not in zone.manager.calls

    def test_end_unknown_call_noop(self):
        zone = _zone()
        zone.manager.end_call(999)

    def test_enqueue_voice_requires_call(self):
        zone = _zone()
        with pytest.raises(KeyError):
            zone.manager.enqueue_voice(0, b"cell")

    def test_downstream_round_covers_all_channels(self):
        zone = _zone(n_channels=4)
        packets = zone.manager.downstream_round(0)
        assert set(packets) == set(zone.mix.channels)

    def test_blocking_when_all_client_channels_busy(self):
        # 2 channels, k=2: two concurrent calls exhaust everything.
        zone = _zone(n_clients=6, n_channels=2, k=2)
        a = zone.clients["client-0"]
        b = zone.clients["client-1"]
        c = zone.clients["client-2"]
        assert zone.manager.handle_signal(a.numeric_id) is not None
        assert zone.manager.handle_signal(b.numeric_id) is not None
        assert zone.manager.handle_signal(c.numeric_id) is None


class _BlockedLog:
    """A call-manager hook that keeps the ids of ``blocked`` calls and
    ignores every other event."""

    def __init__(self):
        self.blocked_ids = []

    def blocked(self, numeric_id):
        self.blocked_ids.append(numeric_id)

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class TestBlockedCount:
    """A client's failed allocation counts once, however often the ring
    or its standing signal bit retries it; it counts again only after
    a grant or the end of its pairing."""

    def _full_zone(self):
        # 2 channels at k = 2: the two callers hold both, so both
        # callees are blocked from the ring's first try on.
        zone = _zone(n_clients=8, n_channels=2, n_sps=1, k=2, seed=3)
        log = zone.manager.obs = _BlockedLog()
        zone.start_call("client-0", "client-1")
        zone.start_call("client-2", "client-3")
        return zone, log

    def test_a_rung_callee_counts_once(self):
        zone, log = self._full_zone()
        zone.run(1)
        assert zone.manager.calls_blocked == 0
        for _ in range(5):
            zone.run(1)
            assert zone.manager.calls_blocked == 2
        callees = [zone.clients[c].numeric_id
                   for c in ("client-1", "client-3")]
        assert sorted(log.blocked_ids) == sorted(callees)
        assert zone.state_of("client-0") is CallState.IN_CALL
        assert zone.state_of("client-1") is CallState.IDLE

    def test_counts_again_after_the_pairing_ends(self):
        zone, log = self._full_zone()
        zone.run(3)
        zone.hang_up("client-0")
        zone.run(3)  # client-3 is rung onto the freed channel
        assert zone.state_of("client-3") is CallState.IN_CALL
        assert zone.manager.calls_blocked == 2
        zone.start_call("client-1", "client-0")
        zone.run(4)  # client-1 signals every round, blocked each time
        assert zone.manager.calls_blocked == 3
        assert log.blocked_ids[-1] == zone.clients["client-1"].numeric_id
        zone.hang_up("client-2")
        zone.run(4)
        assert zone.state_of("client-1") is CallState.IN_CALL
        assert zone.state_of("client-0") is CallState.IN_CALL
        assert zone.manager.calls_blocked == 3

    def test_a_signalling_caller_counts_once_until_granted(self):
        zone = _zone(n_clients=6, n_channels=2, k=2)
        manager = zone.manager
        a, b, c = (zone.clients[f"client-{i}"].numeric_id
                   for i in range(3))
        manager.handle_signal(a)
        manager.handle_signal(b)
        for _ in range(3):
            assert manager.handle_signal(c) is None
        assert manager.calls_blocked == 1
        manager.end_call(a)
        assert manager.handle_signal(c) is not None
        manager.end_call(c)
        manager.handle_signal(a)
        assert manager.handle_signal(c) is None
        assert manager.calls_blocked == 2


class TestLiveSignalingFlow:
    def test_outgoing_call_granted_via_rounds(self):
        zone = _zone()
        zone.clients["client-0"].agent.start_outgoing()
        assert zone.state_of("client-0") is CallState.SIGNALING
        zone.run(2)  # round 1: signal travels up; grant comes down
        assert zone.state_of("client-0") is CallState.IN_CALL
        assert not zone.clients["client-0"].client.signal_pending

    def test_full_call_setup_and_ring(self):
        zone = _zone()
        zone.start_call("client-0", "client-1")
        zone.run(4)
        assert zone.state_of("client-0") is CallState.IN_CALL
        assert zone.state_of("client-1") is CallState.IN_CALL

    def test_voice_flows_both_ways(self):
        zone = _zone()
        zone.start_call("client-0", "client-1")
        zone.run(4)
        for i in range(10):
            zone.say("client-0", b"ALICE%03d" % i)
            zone.say("client-1", b"BOB%05d" % i)
        zone.run(15)
        got_b = zone.received_by("client-1")
        got_a = zone.received_by("client-0")
        assert [c[:8] for c in got_b] == \
            [b"ALICE%03d" % i for i in range(10)]
        assert [c[:8] for c in got_a] == \
            [b"BOB%05d" % i for i in range(10)]

    def test_other_clients_stay_idle_and_learn_nothing(self):
        zone = _zone()
        zone.start_call("client-0", "client-1")
        zone.run(6)
        for cid, live in zone.clients.items():
            if cid in ("client-0", "client-1"):
                continue
            assert live.agent.state is CallState.IDLE
            assert live.agent.received_cells == []

    def test_hang_up_frees_both_channels(self):
        zone = _zone()
        zone.start_call("client-0", "client-1")
        zone.run(4)
        busy_before = sum(1 for ch in zone.mix.channels.values()
                          if ch.is_busy)
        assert busy_before == 2
        zone.hang_up("client-0")
        assert all(not ch.is_busy for ch in zone.mix.channels.values())
        assert zone.state_of("client-0") is CallState.IDLE
        assert zone.state_of("client-1") is CallState.IDLE

    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_hang_up_drops_the_ended_calls_queued_voice(self, execution):
        """Cells said to B but not yet carried when A hangs up never
        reach A's next peer, C."""
        zone = _zone(execution=execution)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        for i in range(3):
            zone.say("client-0", b"FOR-B-%d" % i)
        zone.hang_up("client-0")
        zone.start_call("client-0", "client-2")
        zone.run(4)
        assert zone.state_of("client-2") is CallState.IN_CALL
        zone.say("client-0", b"FOR-C")
        zone.run(4)
        assert [cell[:5] for cell in zone.received_by("client-2")] \
            == [b"FOR-C"]
        assert zone.received_by("client-1") == []

    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_callee_hang_up_drops_both_legs_queued_voice(self, execution):
        """The callee hangs up with voice queued on both legs; neither
        leg's cells reach the peer of the leg's next call."""
        zone = _zone(execution=execution)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        for i in range(3):
            zone.say("client-0", b"FOR-B-%d" % i)
            zone.say("client-1", b"FOR-A-%d" % i)
        zone.hang_up("client-1")
        assert not zone.clients["client-0"].outbox
        assert not zone.clients["client-1"].outbox
        zone.start_call("client-0", "client-2")
        zone.start_call("client-1", "client-3")
        zone.run(5)
        zone.say("client-0", b"FOR-C")
        zone.say("client-1", b"FOR-D")
        zone.run(4)
        assert [cell[:5] for cell in zone.received_by("client-2")] \
            == [b"FOR-C"]
        assert [cell[:5] for cell in zone.received_by("client-3")] \
            == [b"FOR-D"]

    @pytest.mark.parametrize("execution", ["event", "batch-v2"])
    def test_hang_up_when_idle_is_a_noop(self, execution):
        zone = _zone(execution=execution)
        zone.hang_up("client-0")
        zone.run(2)
        assert zone.state_of("client-0") is CallState.IDLE
        assert all(not ch.is_busy for ch in zone.mix.channels.values())

    def test_sequential_calls_reuse_channels(self):
        zone = _zone(n_clients=8, n_channels=2, k=2)
        for trial in range(3):
            zone.start_call("client-0", "client-1")
            zone.run(4)
            assert zone.state_of("client-0") is CallState.IN_CALL
            zone.hang_up("client-0")
            zone.run(1)

    def test_concurrent_calls_on_distinct_channels(self):
        zone = _zone(n_clients=12, n_channels=4, k=3)
        zone.start_call("client-0", "client-1")
        zone.start_call("client-2", "client-3")
        zone.run(5)
        channels = {zone.clients[c].agent.active_channel
                    for c in ("client-0", "client-1", "client-2",
                              "client-3")}
        assert None not in channels
        assert len(channels) == 4  # one channel per call leg

    def test_cannot_start_while_in_call(self):
        zone = _zone()
        zone.start_call("client-0", "client-1")
        zone.run(4)
        with pytest.raises(RuntimeError):
            zone.clients["client-0"].agent.start_outgoing()


def _call_state(zone):
    """Everything a refused ``start_call`` must leave as it was."""
    return (dict(zone.manager.peers),
            {cid: (live.agent.state, live.agent.active_channel,
                   live.client.signal_pending)
             for cid, live in zone.clients.items()})


@pytest.mark.parametrize("execution", ["event", "batch-v2"])
class TestStartCallRefusal:
    """A call never takes over a party of another call: ``start_call``
    raises :class:`CallRefused` before any state changes when either
    party already has a call leg, or the caller calls itself."""

    def test_busy_callee_keeps_its_voice(self, execution):
        zone = _zone(execution=execution)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        before = _call_state(zone)
        with pytest.raises(CallRefused, match="client-1"):
            zone.start_call("client-2", "client-1")
        assert _call_state(zone) == before
        for r in range(12):
            zone.say("client-1", b"TO-A-%d" % r)
            zone.step()
        assert len(zone.received_by("client-0")) == 12
        assert zone.received_by("client-2") == []
        assert zone.state_of("client-2") is CallState.IDLE

    def test_busy_caller_refused(self, execution):
        zone = _zone(execution=execution)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        before = _call_state(zone)
        for caller in ("client-0", "client-1"):
            with pytest.raises(CallRefused, match=caller):
                zone.start_call(caller, "client-2")
        assert _call_state(zone) == before

    def test_callee_being_rung_refused(self, execution):
        """Before the GRANT the callee's agent is still IDLE; it is a
        call party all the same."""
        zone = _zone(execution=execution)
        zone.start_call("client-0", "client-1")
        assert zone.state_of("client-1") is CallState.IDLE
        before = _call_state(zone)
        with pytest.raises(CallRefused, match="client-1"):
            zone.start_call("client-1", "client-2")
        with pytest.raises(CallRefused, match="client-1"):
            zone.start_call("client-3", "client-1")
        assert _call_state(zone) == before
        zone.run(5)
        assert zone.state_of("client-0") is CallState.IN_CALL
        assert zone.state_of("client-1") is CallState.IN_CALL

    def test_self_call_refused(self, execution):
        zone = _zone(execution=execution)
        before = _call_state(zone)
        with pytest.raises(CallRefused, match="itself"):
            zone.start_call("client-0", "client-0")
        assert _call_state(zone) == before
        zone.run(2)
        assert zone.state_of("client-0") is CallState.IDLE


class TestLiveZoneInvariants:
    def test_sp_activity_free_during_calls(self):
        zone = _zone()
        zone.start_call("client-0", "client-1")
        zone.run(4)
        assert sp_state_is_activity_free(zone.sps[0])

    def test_sp_round_volume_constant_regardless_of_calls(self):
        """The SP forwards identical byte volumes per round whether the
        zone is idle or mid-call — I8 at the data plane."""
        def volumes(make_call: bool):
            zone = _zone(seed=9)
            if make_call:
                zone.start_call("client-0", "client-1")
            before = zone.sps[0].rounds_forwarded
            zone.run(10)
            for _ in range(5):
                zone.say("client-0", b"X" * 100) if make_call else None
            zone.run(10)
            return zone.sps[0].rounds_forwarded - before

        assert volumes(False) == volumes(True)

    def test_client_emits_every_round_on_every_channel(self):
        zone = _zone(n_clients=6, n_channels=3, k=2)
        zone.run(10)
        for live in zone.clients.values():
            for attachment in live.client.attachments:
                assert attachment.sequence == 10

    def test_rounds_deterministic_given_seed(self):
        def run():
            zone = _zone(seed=21)
            zone.start_call("client-0", "client-1")
            zone.run(4)
            zone.say("client-0", b"hello voice")
            zone.run(3)
            return zone.received_by("client-1")
        assert run() == run()


class TestLiveRateOrchestration:
    def test_epoch_scales_with_call_volume(self):
        zone = _zone(n_clients=12, n_channels=4, k=3)
        idle_rates = zone.run_rate_epoch(0)
        assert idle_rates["sp_links"] == 1  # floor: chaff never stops
        zone.start_call("client-0", "client-1")
        zone.start_call("client-2", "client-3")
        zone.run(5)
        busy_rates = zone.run_rate_epoch(1)
        # 4 active call legs at rate 1 → heavy over-utilization → the
        # directory scales the zone's link groups up simultaneously.
        assert busy_rates["sp_links"] >= 4
        assert busy_rates["sp_links"] == busy_rates["intra_links"]

    def test_rates_scale_back_down_after_hangup(self):
        zone = _zone(n_clients=12, n_channels=4, k=3)
        zone.start_call("client-0", "client-1")
        zone.run(5)
        up = zone.run_rate_epoch(0)
        zone.hang_up("client-0")
        zone.run(1)
        down = zone.run_rate_epoch(1)
        assert down["sp_links"] <= up["sp_links"]
        assert down["sp_links"] >= 1


class TestMultiSPZone:
    def test_channels_partitioned_across_sps(self):
        zone = _zone(n_clients=12, n_channels=4, k=2, n_sps=2)
        hosted = [set(sp.channel_clients) for sp in zone.sps]
        assert hosted[0] == {0, 2}
        assert hosted[1] == {1, 3}

    def test_calls_work_across_sps(self):
        zone = _zone(n_clients=12, n_channels=4, k=3, n_sps=4)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        assert zone.state_of("client-0") is CallState.IN_CALL
        assert zone.state_of("client-1") is CallState.IN_CALL
        zone.say("client-0", b"multi-sp voice")
        zone.run(3)
        received = zone.received_by("client-1")
        assert received and received[0][:14] == b"multi-sp voice"

    def test_every_sp_carries_rounds(self):
        zone = _zone(n_clients=8, n_channels=4, k=2, n_sps=2)
        zone.run(5)
        for sp in zone.sps:
            assert sp.rounds_forwarded == 5 * len(sp.channel_clients)

    def test_validation(self):
        with pytest.raises(ValueError):
            _zone(n_sps=0)
        with pytest.raises(ValueError):
            _zone(n_channels=2, n_sps=3)


class TestMidCallFailover:
    def _in_call_zone(self, **kwargs):
        zone = _zone(n_clients=12, n_channels=6, k=3, n_sps=2, **kwargs)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        assert zone.state_of("client-0") is CallState.IN_CALL
        assert zone.state_of("client-1") is CallState.IN_CALL
        return zone

    def test_fail_channels_regrants_on_surviving_channel(self):
        zone = self._in_call_zone()
        victim = zone.clients["client-0"]
        old_channel = victim.agent.active_channel
        records = zone.manager.fail_channels([old_channel])
        assert len(records) == 1
        record = records[0]
        assert record.survived
        assert record.old_channel == old_channel
        assert record.new_channel != old_channel
        assert old_channel in zone.manager.disabled_channels
        call = zone.manager.calls[victim.numeric_id]
        assert call.channel_id == record.new_channel
        assert call.failed_over_from == [old_channel]
        # The re-GRANT rides the next downstream round and the client
        # switches channels.
        zone.run(2)
        assert victim.agent.active_channel == record.new_channel
        assert victim.agent.state is CallState.IN_CALL

    def test_disabled_channels_never_reallocated(self):
        zone = self._in_call_zone()
        dead = zone.clients["client-0"].agent.active_channel
        zone.manager.fail_channels([dead])
        zone.hang_up("client-0")
        for cid in ("client-2", "client-3", "client-4"):
            zone.start_call(cid, f"client-{int(cid[-1]) + 4}")
            zone.run(3)
        for call in zone.manager.calls.values():
            assert call.channel_id != dead

    def test_live_sp_failure_call_resumes_on_surviving_sp(self):
        zone = self._in_call_zone()
        victim = zone.clients["client-0"]
        dead_sp = zone._sp_of_channel[victim.agent.active_channel]
        survivors = [sp for sp in zone.sps if sp is not dead_sp]
        records = zone.fail_superpeer(dead_sp.sp_id)
        assert dead_sp.sp_id not in zone.bed.superpeers
        assert dead_sp not in zone.sps
        regranted = [r for r in records
                     if r.numeric_id == victim.numeric_id]
        assert len(regranted) == 1 and regranted[0].survived
        new_channel = regranted[0].new_channel
        assert new_channel in survivors[0].channel_clients
        # Voice flows again after the switch, both directions.
        zone.run(2)
        assert victim.agent.active_channel == new_channel
        before_0 = len(zone.received_by("client-0"))
        before_1 = len(zone.received_by("client-1"))
        for i in range(5):
            zone.say("client-0", b"after-failover-%d" % i)
            zone.say("client-1", b"reply-%d" % i)
        zone.run(10)
        assert len(zone.received_by("client-1")) >= before_1 + 5
        assert len(zone.received_by("client-0")) >= before_0 + 5
        assert zone.received_by("client-1")[-1][:14] == b"after-failover"

    def test_dropped_leg_tears_down_both_sides(self):
        # Two channels, one per SP, k=2: when the caller's SP dies the
        # only surviving channel is busy with the callee's leg, so the
        # caller's leg is dropped and both sides hang up.
        zone = _zone(n_clients=6, n_channels=2, k=2, n_sps=2)
        zone.start_call("client-0", "client-1")
        zone.run(4)
        caller = zone.clients["client-0"]
        dead_sp = zone._sp_of_channel[caller.agent.active_channel]
        records = zone.fail_superpeer(dead_sp.sp_id)
        dropped = [r for r in records if not r.survived]
        assert len(dropped) == 1
        assert zone.state_of("client-0") is CallState.IDLE
        assert zone.state_of("client-1") is CallState.IDLE
        assert zone.manager.calls == {}
        assert zone.manager.peers == {}

    def test_failover_records_accumulate_on_manager(self):
        zone = self._in_call_zone()
        dead = zone.clients["client-0"].agent.active_channel
        zone.manager.fail_channels([dead])
        assert len(zone.manager.failovers) == 1
        assert zone.manager.failovers[0].old_channel == dead
