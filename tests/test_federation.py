"""Tests for the federated (two-zone, SPs both ends) data path."""

import pytest

from repro.core.callmanager import CallState
from repro.core.rendezvous import CallError
from repro.simulation.federation import FederatedHerd


@pytest.fixture(scope="module")
def federation():
    net = FederatedHerd(n_clients_per_zone=6, n_channels=3, k=2, seed=3)
    call = net.call(("zone-EU", "eu-0"), ("zone-NA", "na-0"))
    return net, call


class TestEstablishment:
    def test_both_parties_in_call(self, federation):
        net, call = federation
        assert call.session.established
        assert net.zones["zone-EU"].state_of("eu-0") is CallState.IN_CALL
        assert net.zones["zone-NA"].state_of("na-0") is CallState.IN_CALL

    def test_circuits_spliced_across_zones(self, federation):
        net, call = federation
        caller_circuit = call.caller.client.circuit
        rdv = net.bed.mixes[caller_circuit.rendezvous_mix]
        state = rdv.circuit_state(caller_circuit.circuit_id)
        assert state.spliced_circuit == \
            call.callee.client.circuit.circuit_id
        assert state.next_hop.startswith("zone-NA/")

    def test_say_requires_establishment(self):
        net = FederatedHerd(n_clients_per_zone=4, n_channels=2, seed=9)
        from repro.simulation.federation import (FederatedCall,
                                                 FederatedEndpoint)
        call = FederatedCall(
            net,
            FederatedEndpoint(net.zones["zone-EU"], "eu-0"),
            FederatedEndpoint(net.zones["zone-NA"], "na-0"))
        with pytest.raises(CallError):
            call.say("caller_to_callee", b"\x00" * 160)

    def test_setup_runs_in_band_on_sequence_zero(self, monkeypatch):
        """The call's keys come from the session's INVITE/ACCEPT over
        the spliced circuits, which take sequence 0 each way, so the
        first voice frame on either channel goes out at sequence 1."""
        net = FederatedHerd(n_clients_per_zone=4, n_channels=2, seed=9)
        call = net.call(("zone-EU", "eu-0"), ("zone-NA", "na-0"))
        assert call.session.established
        sent = []
        for zone in net.zones.values():
            monkeypatch.setattr(zone, "say",
                                lambda cid, payload: sent.append(payload))
        call.say("caller_to_callee", b"\x01" * 160)
        call.say("callee_to_caller", b"\x02" * 160)
        assert [int.from_bytes(p[:8], "little") for p in sent] == [1, 1]

    def test_misrouted_cell_is_refused(self, monkeypatch):
        """A cell the splice hands to a bystander's circuit is an
        error, not a packet queued on the callee's channel."""
        net = FederatedHerd(n_clients_per_zone=4, n_channels=2, seed=9)
        call = net.call(("zone-EU", "eu-0"), ("zone-NA", "na-0"))
        bystander = net.bed.service.build_standing_circuit(
            net.zones["zone-NA"].clients["na-1"].client)
        caller = call.caller.client.circuit
        splice = net.bed.mixes[caller.rendezvous_mix].circuit_state(
            caller.circuit_id)
        monkeypatch.setattr(splice, "spliced_circuit",
                            bystander.circuit_id)
        seq, cell = call.session.seal("caller_to_callee", b"\x03" * 160)
        queued = net.zones["zone-NA"].manager.calls[
            call.callee.numeric_id].downstream
        with pytest.raises(CallError, match="expected na-0"):
            call.on_upstream("zone-EU", call.caller.numeric_id,
                             seq.to_bytes(8, "little") + cell)
        assert not queued


class TestVoiceAcrossZones:
    def test_frames_cross_zones_both_ways(self, federation):
        net, call = federation
        for i in range(8):
            call.say("caller_to_callee", bytes([100 + i]) * 160)
            call.say("callee_to_caller", bytes([200 + i]) * 160)
        net.run(12)
        call.drain_received()
        got_callee = [f[0] for f in call.callee.received_frames]
        got_caller = [f[0] for f in call.caller.received_frames]
        assert got_callee == [100 + i for i in range(8)]
        assert got_caller == [200 + i for i in range(8)]

    def test_frames_are_exact(self, federation):
        net, call = federation
        n_before = len(call.callee.received_frames)
        call.say("caller_to_callee", bytes(range(160)))
        net.run(4)
        call.drain_received()
        assert call.callee.received_frames[n_before] == bytes(range(160))

    def test_bystanders_learn_nothing(self, federation):
        net, call = federation
        call.say("caller_to_callee", b"\x99" * 160)
        net.run(4)
        for zone in net.zones.values():
            for cid, live in zone.clients.items():
                if cid in ("eu-0", "na-0"):
                    continue
                assert live.agent.state is CallState.IDLE
                assert live.agent.received_cells == []

    def test_sps_see_only_fixed_size_ciphertext(self, federation):
        net, call = federation
        # Both SPs keep forwarding one XOR + manifests per channel per
        # round regardless of the cross-zone call.
        eu_before = net.zones["zone-EU"].sps[0].rounds_forwarded
        na_before = net.zones["zone-NA"].sps[0].rounds_forwarded
        for _ in range(5):
            call.say("caller_to_callee", b"\x01" * 160)
        net.run(10)
        assert net.zones["zone-EU"].sps[0].rounds_forwarded - eu_before \
            == 10 * 3  # rounds × channels, payload-independent
        assert net.zones["zone-NA"].sps[0].rounds_forwarded - na_before \
            == 10 * 3

    def test_second_concurrent_call(self):
        net = FederatedHerd(n_clients_per_zone=6, n_channels=3, k=3,
                            seed=11)
        call1 = net.call(("zone-EU", "eu-0"), ("zone-NA", "na-0"))
        call2 = net.call(("zone-NA", "na-1"), ("zone-EU", "eu-1"))
        call1.say("caller_to_callee", b"\x10" * 160)
        call2.say("caller_to_callee", b"\x20" * 160)
        net.run(6)
        call1.drain_received()
        call2.drain_received()
        assert call1.callee.received_frames[0][0] == 0x10
        assert call2.callee.received_frames[0][0] == 0x20
