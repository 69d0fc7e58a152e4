"""The ``fuzz`` spec kind of the :mod:`repro.api` façade."""

from __future__ import annotations

import json

import pytest

from repro.api import SpecValidationError, load_spec, run
from repro.fuzz import FuzzResult, FuzzSpec


class TestLoadSpec:
    def test_named_target_document(self):
        spec = load_spec({"kind": "fuzz", "target": "ring", "budget": 50})
        assert isinstance(spec, FuzzSpec)
        assert spec.target.name == "ring"
        assert spec.budget == 50
        assert spec.guided and spec.minimize

    def test_kind_is_inferred_from_target_or_budget(self):
        assert isinstance(load_spec({"target": "ring"}), FuzzSpec)
        assert isinstance(load_spec({"target": "ring", "budget": 10}), FuzzSpec)

    def test_inline_program_document(self):
        spec = load_spec(
            {
                "kind": "fuzz",
                "num_processes": 2,
                "program": [
                    {"op": "send", "pid": 0, "target": 1},
                    {"op": "send", "pid": 1, "target": 0},
                    {"op": "checkpoint", "pid": 0},
                ],
                "budget": 20,
            }
        )
        assert isinstance(spec, FuzzSpec)
        assert spec.target.name == "custom"
        assert spec.target.config.num_processes == 2

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps({"kind": "fuzz", "target": "ring-crash"}))
        spec = load_spec(str(path))
        assert isinstance(spec, FuzzSpec)
        assert spec.target.name == "ring-crash"

    def test_already_built_spec_passes_through(self):
        spec = load_spec({"kind": "fuzz", "target": "ring"})
        assert load_spec(spec) is spec

    def test_unknown_target_names_accepted_set(self):
        with pytest.raises(SpecValidationError) as exc:
            load_spec({"kind": "fuzz", "target": "bogus"})
        assert exc.value.accepted
        assert "ring" in exc.value.accepted

    def test_unknown_key_is_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown fuzz spec key"):
            load_spec({"kind": "fuzz", "target": "ring", "wat": 1})

    def test_target_and_program_conflict(self):
        with pytest.raises(SpecValidationError, match="not both"):
            load_spec(
                {
                    "kind": "fuzz",
                    "target": "ring",
                    "program": [{"op": "checkpoint", "pid": 0}],
                }
            )


class TestRun:
    def test_run_returns_a_fuzz_result(self):
        result = run(
            {"kind": "fuzz", "target": "ring", "budget": 30, "minimize": False}
        )
        assert isinstance(result, FuzzResult)
        assert result.ok
        assert result.stats.executions <= 30

    def test_max_executions_overrides_budget(self):
        result = run(
            {"kind": "fuzz", "target": "ring", "budget": 500},
            max_executions=15,
        )
        assert result.stats.executions <= 15

    def test_negative_max_executions_is_rejected(self):
        with pytest.raises(SpecValidationError, match="got -1") as exc:
            run({"kind": "fuzz", "target": "ring"}, max_executions=-1)
        assert exc.value.field == "max_executions"

    def test_fuzz_refuses_a_negative_budget(self):
        from repro.fuzz import fuzz

        with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
            fuzz("ring", budget=-1)

    def test_campaign_only_options_are_rejected(self, tmp_path):
        with pytest.raises(SpecValidationError, match="campaign"):
            run(
                {"kind": "fuzz", "target": "ring", "budget": 5},
                store=str(tmp_path / "results.sqlite"),
            )
