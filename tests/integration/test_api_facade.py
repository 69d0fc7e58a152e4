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
        with pytest.raises(api.SpecValidationError, match="explore"):
            api.run(CAMPAIGN_DOC, max_executions=5)


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
