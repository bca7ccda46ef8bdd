"""Scenario model + loader: validation, target expansion, signatures,
and the actionable-error contract of the TOML loader (§10)."""

import dataclasses

import pytest

from repro.core.retry import BackoffPolicy
from repro.faults.plan import FaultKind, FaultSpec
from repro.scenario import (
    Adversary,
    ChurnEvent,
    Scenario,
    ScenarioError,
    SurvivalCriteria,
    Workload,
    ZoneShape,
)
from repro.scenario.loader import load_corpus, load_scenario, parse_scenario
from repro.scenario.model import (
    CTL_ZONE,
    LIVE_ZONE,
    default_rejoin_policy,
    expand_target,
)


class TestModelValidation:
    def test_minimal_scenario_builds(self):
        s = Scenario(name="ok")
        assert s.seed == 20150817
        assert s.zone.n_clients == 12

    @pytest.mark.parametrize("bad", [
        dict(name=""),
        dict(name="x", horizon_s=0.0),
        dict(name="x", round_interval_s=-0.1),
        dict(name="x", zone=ZoneShape(n_clients=4),
             workload=Workload(call_pairs=3)),
    ])
    def test_bad_scenarios_rejected(self, bad):
        with pytest.raises(ScenarioError):
            Scenario(**bad)

    def test_workload_kind_validation(self):
        with pytest.raises(ScenarioError, match="flash_crowd"):
            Workload(kind="flash_crowd", spike_pairs=0)
        with pytest.raises(ScenarioError, match="poisson"):
            Workload(kind="poisson", arrival_rate_per_s=0.0)
        with pytest.raises(ScenarioError, match="one of"):
            Workload(kind="bursty")

    def test_churn_and_adversary_validation(self):
        with pytest.raises(ScenarioError, match="action"):
            ChurnEvent(at_s=1.0, action="client_restart")
        with pytest.raises(ScenarioError, match="targets"):
            Adversary(kind="sybil_sp")
        with pytest.raises(ScenarioError, match="one of"):
            Adversary(kind="global_active")

    def test_criteria_validation(self):
        with pytest.raises(ScenarioError):
            SurvivalCriteria(min_call_survival_rate=1.5)
        with pytest.raises(ScenarioError):
            SurvivalCriteria(max_dropped_failovers=-1)

    def test_validate_rejects_unreachable_events(self):
        s = Scenario(name="x", horizon_s=2.0, faults=(
            FaultSpec(kind=FaultKind.SP_CRASH, at_s=3.0,
                      target="zone-live/sp-1"),))
        s_ok = s.with_horizon(4.0)
        s_ok.validate()  # fine once the horizon covers the fault
        with pytest.raises(ScenarioError, match="never"):
            s.validate()
        # ...but construction itself stays legal: Simulation.run(until=)
        # may truncate a scenario programmatically.
        assert s.horizon_s == 2.0


class TestTargetExpansion:
    @pytest.mark.parametrize("kind,target,expected", [
        (FaultKind.SP_CRASH, "sp-1", f"{LIVE_ZONE}/sp-1"),
        (FaultKind.LOSS_BURST, "sp-0", f"{LIVE_ZONE}/sp-0"),
        (FaultKind.MIX_CRASH, "mix-0", f"{CTL_ZONE}/mix-0"),
        (FaultKind.DIRECTORY_STALL, "ctl", CTL_ZONE),
        (FaultKind.DIRECTORY_STALL, "live", LIVE_ZONE),
        (FaultKind.OVERLOAD, "zone", "zone"),
        (FaultKind.SP_CRASH, "zone-X/sp-9", "zone-X/sp-9"),
    ])
    def test_expansion(self, kind, target, expected):
        assert expand_target(kind, target) == expected


class TestSignatures:
    def test_signature_stable_and_field_sensitive(self):
        a = Scenario(name="sig")
        assert a.signature() == Scenario(name="sig").signature()
        assert a.signature() != \
            dataclasses.replace(a, seed=1).signature()
        assert a.signature() != a.with_horizon(9.0).signature()

    def test_sybil_adversary_compiles_into_plan(self):
        s = Scenario(name="sybil", adversary=Adversary(
            kind="sybil_sp", targets=("sp-1",), at_s=1.0,
            duration_s=2.0))
        kinds = [spec.kind for spec in s.plan()]
        assert kinds == [FaultKind.LINK_DEGRADE]
        assert s.plan().specs[0].target == f"{LIVE_ZONE}/sp-1"


_GOOD_TOML = """\
[scenario]
name = "loader-check"
horizon_s = 3.0

[workload]
kind = "constant"
call_pairs = 1

[[fault]]
kind = "sp_crash"
at_s = 1.0
target = "sp-1"

[criteria]
min_call_survival_rate = 1.0
"""


class TestLoader:
    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "good.toml"
        path.write_text(_GOOD_TOML)
        s = load_scenario(path)
        assert s.name == "loader-check"
        assert s.faults[0].target == f"{LIVE_ZONE}/sp-1"

    def test_unknown_key_gets_did_you_mean(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario({"scenario": {"name": "x", "horizn_s": 3}})
        assert "did you mean 'horizon_s'" in str(err.value)

    def test_unknown_fault_kind_gets_suggestion(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario({
                "scenario": {"name": "x"},
                "fault": [{"kind": "sp_crush", "at_s": 1.0,
                           "target": "sp-1"}]})
        assert "did you mean 'sp_crash'" in str(err.value)

    def test_type_errors_are_actionable(self):
        with pytest.raises(ScenarioError, match="'seed' must be int"):
            parse_scenario({"scenario": {"name": "x", "seed": "7"}})
        with pytest.raises(ScenarioError, match="boolean"):
            parse_scenario({"scenario": {"name": "x", "seed": True}})

    def test_error_carries_file_context(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text(_GOOD_TOML.replace('kind = "sp_crash"',
                                           'kind = "sp_crash"\nloss = 2.0'))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)

    def test_invalid_toml_reported(self, tmp_path):
        path = tmp_path / "nottoml.toml"
        path.write_text("[scenario\nname=")
        with pytest.raises(ScenarioError, match="invalid TOML"):
            load_scenario(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.toml")

    def test_corpus_rejects_duplicates_and_empty(self, tmp_path):
        with pytest.raises(ScenarioError, match="no .* scenario"):
            load_corpus(tmp_path)
        (tmp_path / "a.toml").write_text(_GOOD_TOML)
        (tmp_path / "b.toml").write_text(_GOOD_TOML)
        with pytest.raises(ScenarioError, match="duplicate"):
            load_corpus(tmp_path)

    def test_shipped_corpus_loads(self):
        scenarios = load_corpus("scenarios")
        names = [s.name for s in scenarios]
        assert len(names) >= 6
        assert len(set(names)) == len(names)
        # Every composition axis is represented in the corpus.
        kinds = {s.workload.kind for s in scenarios}
        assert {"constant", "flash_crowd", "poisson"} <= kinds
        assert any(s.churn for s in scenarios)
        assert any(s.adversary.kind == "wiretap" for s in scenarios)
        assert any(s.adversary.kind == "sybil_sp" for s in scenarios)


class TestValidateWholePlan:
    def test_sybil_campaign_after_horizon_rejected(self):
        # The campaign compiles into a LINK_DEGRADE at 5.0 s, which a
        # 2 s run never reaches — the same as a declared fault there.
        s = Scenario(name="x", horizon_s=2.0, adversary=Adversary(
            kind="sybil_sp", targets=("sp-1",), at_s=5.0))
        with pytest.raises(ScenarioError, match="link_degrade@5.0s"):
            s.validate()
        s.with_horizon(6.0).validate()

    def test_loader_rejects_unreachable_campaign(self):
        with pytest.raises(ScenarioError, match="never run"):
            parse_scenario({
                "scenario": {"name": "x", "horizon_s": 2.0},
                "adversary": {"kind": "sybil_sp", "targets": ["sp-1"],
                              "at_s": 5.0}})


def _init_names(cls):
    return {f.name for f in dataclasses.fields(cls) if f.init}


def _allowed_keys(data, where):
    """The key list an unknown-key error names for one section."""
    with pytest.raises(ScenarioError, match="unknown key") as err:
        parse_scenario(data)
    message = str(err.value)
    assert where in message
    return set(message.split("allowed keys: ")[1].split(", "))


#: Each TOML table, the model class it builds and the field it fills.
_TABLES = [
    ("zone", ZoneShape, "zone"),
    ("workload", Workload, "workload"),
    ("adversary", Adversary, "adversary"),
    ("criteria", SurvivalCriteria, "criteria"),
    ("rejoin", BackoffPolicy, "rejoin_policy"),
]
_ARRAYS = [
    ("churn", ChurnEvent, {"at_s": 1.0, "action": "client_join"}),
    ("fault", FaultSpec, {"kind": "sp_crash", "at_s": 1.0,
                          "target": "sp-1"}),
]


class TestSchemaIsTheModel:
    """The loader takes every key, type and default from the model's
    dataclass fields; these tests fail if the two drift apart."""

    @pytest.mark.parametrize("table,cls,_field", _TABLES)
    def test_table_keys_are_init_fields(self, table, cls, _field):
        allowed = _allowed_keys({"scenario": {"name": "x"},
                                 table: {"bogus": 1}}, f"[{table}]")
        assert allowed == _init_names(cls)

    @pytest.mark.parametrize("table,cls,required", _ARRAYS)
    def test_array_keys_are_init_fields(self, table, cls, required):
        allowed = _allowed_keys({"scenario": {"name": "x"},
                                 table: [{**required, "bogus": 1}]},
                                f"[[{table}]][0]")
        assert allowed == _init_names(cls)

    def test_scenario_keys_are_init_fields(self):
        head = _allowed_keys({"scenario": {"name": "x", "bogus": 1}},
                             "[scenario]")
        top = _allowed_keys({"scenario": {"name": "x"}, "bogus": {}},
                            "<scenario>")
        renamed = {"rejoin_policy": "rejoin", "faults": "fault"}
        fields = {renamed.get(n, n) for n in _init_names(Scenario)}
        assert head | top == fields | {"scenario"}
        assert not head & top

    @pytest.mark.parametrize("table,cls,field", [
        t for t in _TABLES if t[1] is not BackoffPolicy])
    def test_omitted_table_keys_take_model_defaults(self, table, cls,
                                                    field):
        s = parse_scenario({"scenario": {"name": "x"}, table: {}})
        assert getattr(s, field) == cls()

    def test_omitted_head_keys_take_model_defaults(self):
        assert parse_scenario({"scenario": {"name": "x"}}) == \
            Scenario(name="x")

    def test_omitted_churn_keys_take_model_defaults(self):
        s = parse_scenario({"scenario": {"name": "x"},
                            "churn": [dict(_ARRAYS[0][2])]})
        assert s.churn == (ChurnEvent(at_s=1.0, action="client_join"),)

    def test_omitted_fault_keys_take_model_defaults(self):
        spec = parse_scenario({"scenario": {"name": "x"},
                               "fault": [dict(_ARRAYS[1][2])]}).faults[0]
        model = FaultSpec(kind=FaultKind.SP_CRASH, at_s=1.0,
                          target=f"{LIVE_ZONE}/sp-1")
        loader_own = {"loss", "jitter_ms"}
        for name in _init_names(FaultSpec) - loader_own:
            assert getattr(spec, name) == getattr(model, name), name

    # -- the TOML-only defaults, one test each -----------------------------

    def test_fault_loss_and_jitter_default_to_toml_own(self):
        # 0.3 / 50 ms, not FaultSpec's 0.0 / 0.0: both enter the plan
        # signature, so every corpus determinism key depends on them.
        spec = parse_scenario({"scenario": {"name": "x"},
                               "fault": [dict(_ARRAYS[1][2])]}).faults[0]
        assert (spec.loss, spec.jitter_ms) == (0.3, 50.0)

    def test_partial_rejoin_fills_from_scenario_default_policy(self):
        s = parse_scenario({"scenario": {"name": "x"},
                            "rejoin": {"max_attempts": 3}})
        assert s.rejoin_policy == dataclasses.replace(
            default_rejoin_policy(), max_attempts=3)
        assert s.rejoin_policy != BackoffPolicy(max_attempts=3)

    # -- the five type shapes ----------------------------------------------

    def test_int_widens_to_float_but_bool_is_refused(self):
        s = parse_scenario({"scenario": {"name": "x", "horizon_s": 3}})
        assert s.horizon_s == 3.0 and isinstance(s.horizon_s, float)
        with pytest.raises(ScenarioError, match="'horizon_s' must be "
                           "float, got a boolean"):
            parse_scenario({"scenario": {"name": "x",
                                         "horizon_s": True}})

    def test_optional_fields_take_their_inner_type(self):
        s = parse_scenario({"scenario": {"name": "x"}, "criteria": {
            "max_dropped_failovers": 0, "max_rejoin_latency_s": 2}})
        assert s.criteria.max_dropped_failovers == 0
        assert s.criteria.max_rejoin_latency_s == 2.0
        with pytest.raises(ScenarioError,
                           match=r"\[criteria\]: 'max_dropped_failovers'"
                           " must be int"):
            parse_scenario({"scenario": {"name": "x"}, "criteria": {
                "max_dropped_failovers": 0.5}})

    def test_string_lists_become_tuples(self):
        s = parse_scenario({"scenario": {"name": "x"}, "adversary": {
            "kind": "sybil_sp", "targets": ["sp-1", "sp-0"]}})
        assert s.adversary.targets == ("sp-1", "sp-0")
        with pytest.raises(ScenarioError, match="'targets' must be a "
                           "list"):
            parse_scenario({"scenario": {"name": "x"}, "adversary": {
                "kind": "sybil_sp", "targets": "sp-1"}})

    def test_tables_must_be_tables(self):
        with pytest.raises(ScenarioError, match=r"\[zone\] must be a "
                           "table"):
            parse_scenario({"scenario": {"name": "x"}, "zone": 3})
        with pytest.raises(ScenarioError, match=r"\[\[fault\]\] must be "
                           "an array of tables"):
            parse_scenario({"scenario": {"name": "x"},
                            "fault": dict(_ARRAYS[1][2])})

    def test_errors_name_the_array_entry(self):
        with pytest.raises(ScenarioError,
                           match=r"\[\[churn\]\]\[1\]: missing required "
                           "key 'action'"):
            parse_scenario({"scenario": {"name": "x"}, "churn": [
                dict(_ARRAYS[0][2]), {"at_s": 2.0}]})


#: ``Scenario.signature()`` of every corpus file, recorded before the
#: loader read its schema off the model.  A loader change that moves
#: one moves that scenario's determinism key too.
_CORPUS_SIGNATURES = {
    "baseline":
        "8917328e5b23ae91ae7880f6595492f04d94378f08b80610a11ee2d7da5bb33c",
    "chaos-failover":
        "623e5bcdbe1722c43c073898593f33fafd6b70d10c58f31b848d6c0ccb8cb48c",
    "flash-crowd":
        "19c4955b349a0688b4ca22e319a96d690662c1bdb6ca65db446bcba3c60ea3c7",
    "churn-mobile":
        "3e4394898d3dfeb20c6e8ddd02f4d567373770821b26d1bbf74b48da79012562",
    "loss-jitter-storm":
        "18cf3db2ae3352d1aae889e37258ba27df753931260975e9969de64786522bd5",
    "sybil-blacklist":
        "55dfe4418de1b09a4c021394a4704bb84be4d33efaa79b657fbb98bc4b5efd34",
    "directory-stall":
        "cf6df4fb44574172b0805a2e12f800487f80d8de00f1ded483b0123fa83d15a6",
    "net-loopback":
        "39aa7e77d357ceec1aab4853f4a58ad1c5a02e5df7234cb827debdd2ae919254",
}


def test_corpus_signatures_pinned():
    assert {s.name: s.signature() for s in load_corpus("scenarios")} \
        == _CORPUS_SIGNATURES
