"""Tests for the unified ``python -m repro`` façade and the query CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.query_cli import main as query_main
from repro.scenarios.campaign import SQLResultStore, run_campaign, spec_from_mapping

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

    def test_status_lists_live_leases_and_journal_outcomes(self, tmp_path, capsys):
        path = str(tmp_path / "leased.sqlite")
        cells = spec_from_mapping(SPEC_DOCUMENT).cells()
        with SQLResultStore(path) as opened:
            opened.enqueue(cells)
            [held] = opened.claim(worker="holder", limit=1, lease_duration=600.0)
            opened.claim(worker="quitter", limit=1)
            assert opened.release("quitter") == 1
        assert query_main(["status", "--store", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["by_status"] == {"leased": 1, "pending": 1}
        assert document["in_flight"] == 1 and document["claimable"] == 1
        assert document["lease_outcomes"] == {"expired": 0, "stale": 0, "released": 1}
        [lease] = document["live_leases"]
        assert (lease["worker"], lease["cell_id"], lease["attempt"]) == (
            "holder", held.cell_id, 1,
        )
        assert 0 <= lease["age_s"] < 60
        assert 540 < lease["expires_in_s"] <= 600
        assert query_main(["status", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "'released': 1" in out
        assert f"live lease: holder holds {held.cell_id} (attempt 1," in out

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


# ----------------------------------------------------------------------
# One front door: the CLIs load their run through ``api.load_spec``
# ----------------------------------------------------------------------
_VALID = {"name": "door", "num_processes": 3, "duration": 10.0, "seeds": 1}

#: (id, campaign document, accepted?) — the CLI and the façade must agree.
DOOR_DOCUMENTS = [
    ("valid", _VALID, True),
    ("valid-with-kind", {"kind": "campaign", **_VALID}, True),
    ("memberships-only", {"name": "door", "memberships": [{"joins": [[5.0, 3]]}]}, True),
    ("typo-protocol", {**_VALID, "protocols": ["fdass"]}, False),
    ("typo-collector", {"kind": "campaign", **_VALID, "collectors": ["rdt-lgcc"]}, False),
    ("typo-workload", {**_VALID, "workloads": [{"name": "spiral"}]}, False),
    ("typo-backend", {**_VALID, "backends": ["sim", "cloud"]}, False),
    ("typo-audit", {**_VALID, "audit": "loud"}, False),
    ("unknown-key", {**_VALID, "colectors": ["rdt-lgc"]}, False),
    ("bare-string-axis", {**_VALID, "collectors": "rdt-lgc"}, False),
    ("bad-membership", {**_VALID, "memberships": [{"joins": [[5.0, 9]]}]}, False),
    ("bad-network", {**_VALID, "networks": [{"latency": 1.0}]}, False),
    ("bad-option", {**_VALID, "collectors": [{"name": "none", "options": {"z": 1}}]}, False),
    ("zero-processes", {**_VALID, "num_processes": 0}, False),
    ("negative-duration", {**_VALID, "duration": -1}, False),
]


class TestCampaignDoorParity:
    @pytest.mark.parametrize(
        "document, accepted",
        [pytest.param(doc, ok, id=name) for name, doc, ok in DOOR_DOCUMENTS],
    )
    def test_cli_and_facade_agree(self, document, accepted, tmp_path, capsys):
        from repro import api

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        try:
            api.load_spec(str(path), kind="campaign")
            facade_error = None
        except api.SpecValidationError as exc:
            facade_error = str(exc)
        code = repro_main(["campaign", "--spec", str(path), "--dry-run"])
        captured = capsys.readouterr()
        assert (facade_error is None) == accepted
        assert code == (0 if accepted else 2)
        if accepted:
            assert "cells" in captured.out
        else:
            assert f"error: {facade_error}" in captured.err
            assert captured.out == ""

    def test_unreadable_and_non_json_spec_files(self, tmp_path, capsys):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        for path, needle in ((tmp_path / "ghost.json", "cannot read"), (garbled, "is not JSON")):
            assert repro_main(["campaign", "--spec", str(path), "--dry-run"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: source: ") and needle in err and str(path) in err


#: (id, argv) — a bad name on every run-building subcommand.
BAD_NAME_COMMANDS = [
    ("campaign", ["campaign", "--spec", "{spec}", "--dry-run"]),
    ("explore-run", ["explore", "run", "--collector", "bogus"]),
    ("explore-run-protocol", ["explore", "run", "--protocol", "bogus"]),
    ("explore-sweep", ["explore", "sweep", "--collectors", "rdt-lgc,bogus"]),
    ("explore-sweep-protocols", ["explore", "sweep", "--protocols", "bogus"]),
    ("live", ["live", "--collector", "bogus", "--trace", "{trace}"]),
    ("live-protocol", ["live", "--protocol", "bogus", "--trace", "{trace}"]),
    ("live-workload", ["live", "--workload", "spiral", "--trace", "{trace}"]),
    ("live-one-process", ["live", "--processes", "1", "--trace", "{trace}"]),
    ("live-audit", ["live", "--audit", "loud", "--trace", "{trace}"]),
    ("fuzz-run", ["fuzz", "run", "--target", "bogus"]),
]


class TestExitContract:
    @pytest.fixture
    def argv_for(self, tmp_path):
        spec = tmp_path / "typo.json"
        spec.write_text(json.dumps({"kind": "campaign", **_VALID, "collectors": ["bogus"]}))
        substitutions = {"spec": str(spec), "trace": str(tmp_path / "live.trace.jsonl")}
        return lambda argv: [part.format(**substitutions) for part in argv]

    @pytest.mark.parametrize(
        "argv", [pytest.param(argv, id=name) for name, argv in BAD_NAME_COMMANDS]
    )
    @pytest.mark.parametrize("door", ["dispatcher", "own-main"])
    def test_bad_input_is_exit_2_with_one_error_line(
        self, door, argv, argv_for, tmp_path, capsys, monkeypatch
    ):
        import repro.live.cli as live_cli

        def spawned(*args, **kwargs):  # pragma: no cover - the defect
            raise AssertionError("live validated after spawning its workers")

        monkeypatch.setattr(live_cli, "run_live", spawned)
        argv = argv_for(argv)
        if door == "dispatcher":
            code = repro_main(argv)
        else:
            module = {"campaign": "repro.scenarios.campaign.cli"}.get(
                argv[0], f"repro.{argv[0]}.cli"
            )
            code = __import__(module, fromlist=["main"]).main(argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""
        # Nothing ran: no artifact, no shard directory next to it.
        assert list(tmp_path.iterdir()) == [tmp_path / "typo.json"]

    def test_subprocess_sees_no_traceback(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "live", "--collector", "bogus",
             "--trace", str(tmp_path / "t.trace.jsonl")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: collector: unknown value 'bogus' (accepted: ")
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []


def test_a_bad_live_audit_is_the_doors_error_line(capsys):
    """``live --audit`` has no vocabulary of its own: the run's is the one."""
    assert repro_main(["live", "--audit", "loud"]) == 2
    assert capsys.readouterr().err == (
        "error: audit: unknown value 'loud' (accepted: off, safety, full)\n"
    )


def test_no_cli_module_builds_its_own_configuration():
    """The second door cannot grow back: CLIs go through ``repro.api``."""
    import pathlib
    import repro

    root = pathlib.Path(repro.__file__).parent
    cli_modules = sorted(root.rglob("cli.py"))
    assert len(cli_modules) >= 6
    for path in cli_modules:
        source = path.read_text(encoding="utf-8")
        for needle in ("spec_from_mapping", "json.load(", "SimulationConfig(", "NetworkConfig("):
            assert needle not in source, f"{path.relative_to(root)} mentions {needle}"


def test_no_run_option_is_out_of_the_doors_reach():
    """A knob only tests can set cannot grow back: every ``SimulationConfig``
    field is assigned somewhere under ``src/repro`` besides the module that
    declares it, and the recorder takes its capacity and its members only."""
    import dataclasses
    import inspect
    import pathlib
    import re
    import repro
    from repro.simulation.runner import SimulationConfig
    from repro.simulation.trace import TraceRecorder

    root = pathlib.Path(repro.__file__).parent
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted(root.rglob("*.py"))
        if path != root / "simulation" / "runner.py"
    ]
    for field in dataclasses.fields(SimulationConfig):
        assignment = re.compile(rf"\b{field.name}=")
        assert any(assignment.search(source) for source in sources), (
            f"SimulationConfig.{field.name} is set by no module under src/repro"
        )
    parameters = inspect.signature(TraceRecorder.__init__).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        ("self", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("num_processes", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("initial_members", inspect.Parameter.KEYWORD_ONLY, None),
    ]


def test_the_transport_contract_is_what_both_backends_implement():
    """``Transport`` cannot outgrow its backends (every call it declares is
    abstract and defined by both), and the live transport cannot grow its own
    fate derivation back (that is ``LinkFates``'s, in the simulator)."""
    import ast
    import inspect
    from repro.live import transport as live_transport
    from repro.simulation.network import Network
    from repro.transport.base import Transport

    declared = {name for name, member in vars(Transport).items() if inspect.isfunction(member)}
    assert declared == Transport.__abstractmethods__ and len(declared) == 4
    for backend in (Network, live_transport.LiveTransport):
        assert declared <= set(vars(backend)), backend.__name__
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(live_transport))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not imported & {"hashlib", "random"}


def test_rdt_lgc_bookkeeping_has_one_home():
    """One RDT-LGC: under ``src/repro`` only the ``rdt-lgc`` collector builds a
    ``UC`` table or computes Algorithm 3's retention assignment, so a second
    implementation (or a subclass rebuilding its parent's table) cannot grow
    back."""
    import ast
    import pathlib
    import repro

    root = pathlib.Path(repro.__file__).parent
    calls = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
                if name in ("UncollectedTable", "retention_assignments"):
                    calls.add((name, path.relative_to(root).as_posix()))
    assert calls == {
        ("UncollectedTable", "gc/rdt_lgc_collector.py"),
        ("retention_assignments", "gc/rdt_lgc_collector.py"),
    }


@pytest.mark.parametrize("command", ["campaign", "query aggregate", "trace replay"])
def test_a_group_by_typo_is_one_error_line_from_every_command(command, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DOCUMENT))
    store, traces = str(tmp_path / "s.sqlite"), str(tmp_path / "traces")
    assert repro_main([
        "campaign", "--spec", str(spec_path), "--store", store, "--traces", traces, "--quiet",
    ]) == 0
    capsys.readouterr()
    argv = {
        "campaign": ["campaign", "--spec", str(spec_path)],
        "query aggregate": ["query", "aggregate", "--store", store],
        "trace replay": ["trace", "replay", traces],
    }[command]
    try:
        status = repro_main(argv + ["--group-by", "bogus"])
    except SystemExit as exit:  # argparse's own way of reporting a usage error
        status = exit.code
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "error: unknown --group-by axis bogus; available: " in captured.err
    assert "collector" in captured.err and "Traceback" not in captured.err


def test_api_query_refuses_an_unknown_axis_by_name(store):
    from repro import api

    with pytest.raises(ValueError, match="unknown --group-by axis bogus; available: .*collector"):
        api.query(store, group_by=("bogus",))


def test_every_out_directory_is_written_by_the_one_summary_method(tmp_path, capsys):
    """``campaign --out``, ``query aggregate --out`` and ``trace replay --out``
    write the same two file names with the same bytes."""
    from repro import api
    from repro.scenarios.campaign.aggregate import CampaignSummary

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DOCUMENT))
    store, traces = str(tmp_path / "s.sqlite"), str(tmp_path / "traces")
    assert repro_main([
        "campaign", "--spec", str(spec_path), "--store", store, "--traces", traces,
        "--out", str(tmp_path / "a"), "--quiet",
    ]) == 0
    assert repro_main(["query", "aggregate", "--store", store, "--out", str(tmp_path / "b")]) == 0
    assert repro_main(["trace", "replay", traces, "--out", str(tmp_path / "c")]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("aggregates written to") == 2  # campaign, trace
    assert captured.err.count("aggregates written to") == 1  # query keeps stdout clean
    summary = api.query(store)
    for door in "abc":
        assert sorted(p.name for p in (tmp_path / door).iterdir()) == [
            "cli-facade.csv", "cli-facade.json",
        ]
        assert (tmp_path / door / "cli-facade.csv").read_text() == summary.to_csv()
        assert (tmp_path / door / "cli-facade.json").read_text() == summary.to_json()
    unnamed = CampaignSummary(campaign="", group_by=(), metrics=(), groups=())
    assert unnamed.write(str(tmp_path / "d"), unnamed="replayed") == (
        str(tmp_path / "d" / "replayed.csv"), str(tmp_path / "d" / "replayed.json"),
    )
