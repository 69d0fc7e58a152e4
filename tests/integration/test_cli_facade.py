"""Tests for the unified ``python -m repro`` façade and the query CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.query_cli import main as query_main
from repro.scenarios.campaign import run_campaign, spec_from_mapping

SPEC_DOCUMENT = {
    "name": "cli-facade",
    "num_processes": 3,
    "duration": 10.0,
    "collectors": ["rdt-lgc", "none"],
    "workloads": ["ring"],
    "failure_counts": [0],
    "seeds": 1,
}


@pytest.fixture
def store(tmp_path):
    path = str(tmp_path / "sweep.sqlite")
    run_campaign(spec_from_mapping(SPEC_DOCUMENT), store_path=path)
    return path


class TestDispatcher:
    def test_help_lists_every_subcommand(self, capsys):
        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("campaign", "trace", "explore", "live", "query"):
            assert name in out

    def test_no_arguments_prints_usage(self, capsys):
        # No command is a usage error (exit 2, usage on stderr); only an
        # explicit --help is a success.
        assert repro_main([]) == 2
        captured = capsys.readouterr()
        assert "usage: python -m repro" in captured.err
        assert captured.out == ""

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert repro_main(["destroy"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err

    def test_campaign_dispatch(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DOCUMENT))
        assert repro_main(["campaign", "--spec", str(spec_path), "--dry-run"]) == 0
        assert "2 cells" in capsys.readouterr().out

    def test_query_dispatch(self, capsys):
        assert repro_main(["query", "list"]) == 0
        assert "retained-winner" in capsys.readouterr().out


class TestQueryCli:
    def test_status(self, store, capsys):
        assert query_main(["status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "'ok': 2" in out

    def test_status_json(self, store, capsys):
        assert query_main(["status", "--store", store, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["by_status"] == {"ok": 2}
        assert document["claimable"] == 0

    def test_canned_query_renders_rows(self, store, capsys):
        assert query_main(["retained-winner", "--store", store]) == 0
        assert "rdt-lgc" in capsys.readouterr().out

    def test_canned_query_json_and_params(self, store, capsys):
        assert query_main([
            "collector-table", "--store", store,
            "--param", "metric=final_retained", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2

    def test_bad_param_is_usage_error(self, store, capsys):
        assert query_main([
            "retained-winner", "--store", store, "--param", "metrik=x",
        ]) == 2
        assert "accepted" in capsys.readouterr().err

    def test_aggregate_writes_documents(self, store, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert query_main([
            "aggregate", "--store", store, "--out", str(out_dir), "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["campaign"] == "cli-facade"
        assert (out_dir / "cli-facade.csv").exists()
        assert (out_dir / "cli-facade.json").exists()

    def test_merge_folds_shards(self, tmp_path, capsys):
        spec = spec_from_mapping(SPEC_DOCUMENT)
        for shard in range(2):
            run_campaign(
                spec,
                store_path=str(tmp_path / f"shard{shard}.sqlite"),
                shard=(shard, 2),
            )
        merged = str(tmp_path / "merged.sqlite")
        assert query_main([
            "merge", "--store", merged,
            str(tmp_path / "shard0.sqlite"), str(tmp_path / "shard1.sqlite"),
        ]) == 0
        assert query_main(["aggregate", "--store", merged]) == 0

    def test_merge_missing_source_is_usage_error(self, tmp_path):
        assert query_main([
            "merge", "--store", str(tmp_path / "m.sqlite"),
            str(tmp_path / "ghost.sqlite"),
        ]) == 2
        assert not (tmp_path / "ghost.sqlite").exists()

    @pytest.mark.parametrize("command", ["status", "aggregate", "retained-winner"])
    def test_missing_store_is_usage_error_and_creates_nothing(
        self, command, tmp_path, capsys
    ):
        typo = tmp_path / "no-such-dir" / "typo.sqlite"
        assert query_main([command, "--store", str(typo)]) == 2
        captured = capsys.readouterr()
        assert "no such store" in captured.err and str(typo) in captured.err
        assert captured.out == ""
        assert not typo.parent.exists()

    @pytest.mark.parametrize("command", ["status", "aggregate", "retained-winner"])
    def test_non_sqlite_store_is_usage_error(self, command, legacy_store_file, capsys):
        assert query_main([command, "--store", legacy_store_file]) == 2
        err = capsys.readouterr().err
        assert legacy_store_file in err and "not a SQLite database" in err


class TestDeprecatedAliases:
    """The historical spellings are gone; ``python -m repro`` is the entry point."""

    @pytest.mark.parametrize(
        "module",
        ["repro.campaign", "repro.traceio", "repro.explore", "repro.live"],
    )
    def test_alias_modules_are_gone(self, module):
        result = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        assert result.returncode != 0
        assert (
            "No module named" in result.stderr
            or "cannot be directly executed" in result.stderr
        )

    def test_unified_spelling_does_not_warn(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "query", "list"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        assert result.returncode == 0
        assert "deprecated" not in result.stderr
