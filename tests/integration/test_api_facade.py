"""Tests for ``repro.api`` — the load_spec / run / query façade."""

import json

import pytest

from repro import api
from repro.explore.program import ExploreConfig
from repro.scenarios.campaign.spec import CampaignSpec
from repro.simulation import SimulationConfig, SimulationResult

CAMPAIGN_DOC = {
    "name": "api-sweep",
    "num_processes": 3,
    "duration": 10.0,
    "collectors": ["rdt-lgc", "none"],
    "workloads": ["ring"],
    "failure_counts": [0],
    "seeds": 1,
}


class TestLoadSpec:
    def test_kind_inference(self):
        assert isinstance(api.load_spec(CAMPAIGN_DOC), CampaignSpec)
        assert isinstance(
            api.load_spec({"num_processes": 2, "duration": 5.0}), SimulationConfig
        )
        assert isinstance(
            api.load_spec(
                {"num_processes": 2, "program": [{"op": "checkpoint", "pid": 0}]}
            ),
            ExploreConfig,
        )

    def test_explicit_kind_key_wins(self):
        spec = api.load_spec({"kind": "live", "num_processes": 2, "duration": 5.0})
        assert isinstance(spec, SimulationConfig)
        assert spec.backend == "live"

    def test_built_objects_pass_through(self):
        spec = api.load_spec(CAMPAIGN_DOC)
        assert api.load_spec(spec) is spec

    def test_json_file_source(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CAMPAIGN_DOC))
        spec = api.load_spec(str(path))
        assert isinstance(spec, CampaignSpec)
        assert spec.name == "api-sweep"

    def test_missing_file_names_the_source(self):
        with pytest.raises(api.SpecValidationError, match="cannot read"):
            api.load_spec("/no/such/spec.json")

    def test_unknown_collector_names_field_and_accepted_values(self):
        document = dict(CAMPAIGN_DOC, collectors=["rdt-lgc", "sweeper"])
        with pytest.raises(api.SpecValidationError) as excinfo:
            api.load_spec(document)
        assert excinfo.value.field == "collectors[1]"
        assert "rdt-lgc" in excinfo.value.accepted
        assert "sweeper" in str(excinfo.value)

    def test_unknown_workload_in_simulation_spec(self):
        with pytest.raises(api.SpecValidationError) as excinfo:
            api.load_spec({"num_processes": 2, "duration": 5.0, "workload": "spiral"})
        assert excinfo.value.field == "workload"
        assert "uniform-random" in excinfo.value.accepted

    def test_unknown_key_lists_known_keys(self):
        with pytest.raises(api.SpecValidationError) as excinfo:
            api.load_spec({"num_processes": 2, "durations": 5.0})
        assert excinfo.value.field == "durations"
        assert "duration" in excinfo.value.accepted

    def test_bad_program_step_is_located(self):
        with pytest.raises(api.SpecValidationError) as excinfo:
            api.load_spec(
                {
                    "num_processes": 2,
                    "program": [
                        {"op": "checkpoint", "pid": 0},
                        {"op": "teleport", "pid": 1},
                    ],
                }
            )
        assert excinfo.value.field == "program[1].op"
        assert excinfo.value.accepted == ["send", "checkpoint", "crash"]

    def test_bad_audit_value(self):
        with pytest.raises(api.SpecValidationError) as excinfo:
            api.load_spec(dict(CAMPAIGN_DOC, audit="loud"))
        assert excinfo.value.field == "audit"
        assert excinfo.value.accepted == ["off", "safety", "full"]


class TestRun:
    def test_simulation_run(self):
        result = api.run(
            {"num_processes": 3, "duration": 10.0, "workload": "ring", "seed": 7}
        )
        assert isinstance(result, SimulationResult)

    def test_campaign_run_with_store_and_query(self, tmp_path):
        store = str(tmp_path / "api.sqlite")
        run = api.run(CAMPAIGN_DOC, store=store)
        assert run.executed == 2
        summary = api.query(store)
        assert json.loads(summary.to_json())["campaign"] == "api-sweep"
        rows = api.query(store, "retained-winner")
        assert rows and all(row["rank"] == 1 for row in rows)

    def test_explore_run(self):
        result = api.run(
            {
                "num_processes": 2,
                "program": [
                    {"op": "send", "pid": 0, "target": 1},
                    {"op": "checkpoint", "pid": 1},
                ],
            },
            max_executions=50,
        )
        assert result.stats.executions > 0

    def test_campaign_options_rejected_for_simulation(self, tmp_path):
        with pytest.raises(api.SpecValidationError, match="campaign"):
            api.run(
                {"num_processes": 2, "duration": 5.0},
                store=str(tmp_path / "x.sqlite"),
            )

    def test_explore_budget_rejected_for_campaign(self):
        with pytest.raises(api.SpecValidationError, match="explore and fuzz specs"):
            api.run(CAMPAIGN_DOC, max_executions=5)

    def test_negative_explore_budget_is_rejected(self):
        spec = {"num_processes": 2, "program": [{"op": "checkpoint", "pid": 1}]}
        with pytest.raises(api.SpecValidationError, match="got -1") as exc:
            api.run(spec, max_executions=-1)
        assert exc.value.field == "max_executions"


class TestQuery:
    def test_unknown_query_names_accepted(self, tmp_path):
        store = str(tmp_path / "q.sqlite")
        api.run(CAMPAIGN_DOC, store=store)
        with pytest.raises(api.SpecValidationError) as excinfo:
            api.query(store, "who-wins")
        assert "retained-winner" in excinfo.value.accepted

    @pytest.mark.parametrize("name", [None, "retained-winner"])
    def test_missing_store_raises_and_creates_nothing(self, name, tmp_path):
        typo = tmp_path / "no-such-dir" / "typo.sqlite"
        with pytest.raises(FileNotFoundError, match="no such store"):
            api.query(str(typo), name)
        assert not typo.parent.exists()

    @pytest.mark.parametrize("name", [None, "retained-winner"])
    def test_non_sqlite_store_is_named_in_the_error(self, name, legacy_store_file):
        with pytest.raises(ValueError, match="not a SQLite database") as excinfo:
            api.query(legacy_store_file, name)
        assert legacy_store_file in str(excinfo.value)
        assert not isinstance(excinfo.value, api.SpecValidationError)

    def test_unknown_query_param_surfaces(self, tmp_path):
        store = str(tmp_path / "q2.sqlite")
        api.run(CAMPAIGN_DOC, store=store)
        with pytest.raises(api.SpecValidationError, match="accepted"):
            api.query(store, "retained-winner", metrik="peak_retained")


# ----------------------------------------------------------------------
# The façade's contract: every bad document names its field at load time
# ----------------------------------------------------------------------
_SIM = {"kind": "simulation", "num_processes": 2, "duration": 10.0}
_SWEEP = {"kind": "campaign", "name": "x", "seeds": 1}

#: (id, document, offending field)
BAD_DOCUMENTS = [
    ("sim-processes-not-a-number", {**_SIM, "num_processes": "abc"}, "num_processes"),
    ("sim-processes-zero", {**_SIM, "num_processes": 0}, "num_processes"),
    ("sim-seed-not-a-number", {**_SIM, "seed": "x"}, "seed"),
    ("sim-duration-null", {**_SIM, "duration": None}, "duration"),
    ("sim-collector-option", {**_SIM, "collector_options": {"zzz": 1}}, "collector_options"),
    ("sim-failures-true", {**_SIM, "failures": True}, "failures"),
    ("sim-failures-string", {**_SIM, "failures": "two"}, "failures"),
    ("sim-failure-model-without-name", {**_SIM, "failures": {"hazard_rate": 0.1}}, "failures"),
    ("sim-membership-unknown-key", {**_SIM, "membership": {"joinz": []}}, "membership"),
    ("sim-membership-beyond-capacity", {**_SIM, "membership": {"joins": [[1.0, 7]]}}, "membership"),
    ("sim-workload-params", {**_SIM, "workload": {"name": "ring", "params": {"z": 1}}}, "workload"),
    ("live-one-process", {**_SIM, "kind": "live", "num_processes": 1}, "num_processes"),
    ("campaign-zero-processes", {**_SWEEP, "num_processes": 0}, "num_processes"),
    ("campaign-duration-nan", {**_SWEEP, "duration": float("nan")}, "duration"),
    ("campaign-duration-negative", {**_SWEEP, "duration": -1}, "duration"),
    ("campaign-failure-count-true", {**_SWEEP, "failure_counts": [True]}, "failure_counts[0]"),
    ("fuzz-negative-budget", {"kind": "fuzz", "target": "ring", "budget": -5}, "budget"),
    ("fuzz-budget-not-a-number", {"kind": "fuzz", "target": "ring", "budget": "lots"}, "budget"),
    ("explore-list-step-bad-op", {"program": [["teleport", 0]]}, "program[0].op"),
    ("explore-list-step-short", {"program": [["send", 0]]}, "program[0]"),
    # A sampling interval that is not positive would reschedule forever.
    ("sim-sample-interval-zero", {**_SIM, "sample_interval": 0}, "sample_interval"),
    ("sim-sample-interval-negative", {**_SIM, "sample_interval": -1.0}, "sample_interval"),
    # An explicit crash the run does not have is a typo, not a no-op.
    ("sim-crash-pid-outside", {**_SIM, "num_processes": 4, "failures": [[5.0, 9]]}, "failures[0]"),
    ("sim-crash-after-the-run", {**_SIM, "failures": [[1.0, 0], [10.0, 1]]}, "failures[1]"),
    ("sim-crash-before-the-run", {**_SIM, "failures": [[-1.0, 0]]}, "failures[0]"),
    ("sim-network-not-a-mapping", {**_SIM, "network": 5}, "network"),
    ("sim-trace-not-a-path", {**_SIM, "trace": 5}, "trace"),
    ("campaign-collector-without-name", {**_SWEEP, "collectors": [{"options": {}}]},
     "collectors[0].name"),
    # Integer and boolean fields take nothing else.
    ("sim-seed-fractional", {**_SIM, "seed": 1.5}, "seed"),
    ("sim-processes-true", {**_SIM, "num_processes": True}, "num_processes"),
    ("campaign-name-not-a-string", {**_SWEEP, "name": ["x"]}, "name"),
    ("fuzz-guided-string", {"kind": "fuzz", "target": "ring", "guided": "no"}, "guided"),
    ("fuzz-minimize-string", {"kind": "fuzz", "target": "ring", "minimize": "false"}, "minimize"),
]


class TestBadDocumentsNameTheirField:
    @pytest.mark.parametrize(
        "document, field",
        [pytest.param(doc, field, id=name) for name, doc, field in BAD_DOCUMENTS],
    )
    def test_load_spec_raises_before_anything_runs(self, document, field):
        with pytest.raises(api.SpecValidationError) as excinfo:
            api.load_spec(document)
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{field}: ")

    def test_constructors_keep_their_own_checks(self):
        from repro.simulation import UniformRandomWorkload

        with pytest.raises(ValueError, match="at least two processes"):
            SimulationConfig(
                num_processes=1, duration=5.0, workload=UniformRandomWorkload(), backend="live"
            )
        with pytest.raises(ValueError, match="at least one process"):
            CampaignSpec(name="x", num_processes=0)
        with pytest.raises(ValueError, match="positive and finite, got nan"):
            CampaignSpec(name="x", duration=float("nan"))
        with pytest.raises(ValueError, match="at least two processes"):
            CampaignSpec(name="x", num_processes=1, backends=("live",))


class TestKindInferenceAndRoundTrips:
    def test_a_memberships_axis_alone_means_a_campaign(self):
        spec = api.load_spec({"name": "x", "memberships": [{"joins": [[5.0, 3]]}]})
        assert isinstance(spec, CampaignSpec)
        assert spec.memberships[0].label() == "membership(join=3@5.0)"

    def test_single_run_membership_key(self):
        config = api.load_spec(
            {**_SIM, "num_processes": 4, "membership": {"joins": [[2, 3]], "leaves": [[6.0, 1]]}}
        )
        assert config.membership.describe() == [["join", 3, 2.0], ["leave", 1, 6.0]]
        assert not api.load_spec({**_SIM, "membership": "static"}).membership
        result = api.run({**_SIM, "num_processes": 4, "membership": {"leaves": [[6.0, 1]]}})
        assert isinstance(result, SimulationResult)

    def test_single_run_failure_entries_match_the_campaign_axis(self):
        import random

        from repro.simulation import FailureSchedule

        config = api.load_spec({**_SIM, "num_processes": 4, "seed": 9, "failures": 2})
        assert config.failures == FailureSchedule.random(
            num_processes=4, duration=10.0, count=2, rng=random.Random(9)
        )
        assert not api.load_spec({**_SIM, "failures": 0}).failures.crashes
        explicit = api.load_spec({**_SIM, "failures": [[3.0, 1]]})
        assert [(c.time, c.pid) for c in explicit.failures.crashes] == [(3.0, 1)]

    def test_a_dormant_joiners_crash_loads_and_does_not_happen(self):
        document = {
            **_SIM, "num_processes": 4, "seed": 2,
            "membership": {"joins": [[6.0, 3]]}, "failures": [[2.0, 3]],
        }
        config = api.load_spec(document)
        assert [(c.time, c.pid) for c in config.failures.crashes] == [(2.0, 3)]
        assert api.run(config).recoveries == []

    def test_describe_round_trips_through_the_facade(self):
        from repro.fuzz.fuzzer import builtin_targets
        from repro.scenarios.experiments import explore_sweep_configs

        configs = [target.config for target in builtin_targets().values()]
        configs += explore_sweep_configs(num_processes=3, messages=4, with_crash=True)
        assert len(configs) > 20
        for config in configs:
            assert api.load_spec({"kind": "explore", **config.describe()}) == config
            assert api.load_spec(config.describe()) == config  # kind inferred

    def test_both_program_step_grammars_mean_the_same_program(self):
        mapping_form = api.load_spec(
            {"program": [{"op": "send", "pid": 0, "target": 1}, {"op": "crash", "pid": 1}]}
        )
        list_form = api.load_spec({"program": [["send", 0, 1], ["crash", 1]]})
        assert mapping_form == list_form

    def test_run_dispatches_a_simulation_through_run_simulation(self, monkeypatch):
        seen = []
        monkeypatch.setattr(api, "run_simulation", lambda config: seen.append(config) or "ran")
        assert api.run(_SIM) == "ran"
        assert seen[0].backend == "sim" and seen[0].num_processes == 2
