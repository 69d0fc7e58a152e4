"""End-to-end tests of ``python -m repro trace`` (replay/inspect/diff).

The acceptance path: ``python -m repro campaign --traces DIR`` writes per-cell
trace artifacts plus live aggregate tables; ``replay`` on the artifact
directory reproduces those tables byte for byte without re-simulation.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.scenarios.campaign.cli import main as campaign_main
from repro.traceio.cli import main
from repro.traceio.reader import TraceReader, verify_replayed, verify_trace


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "mini.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-mini",
                "num_processes": 3,
                "duration": 25.0,
                "collectors": ["rdt-lgc"],
                "workloads": ["uniform-random"],
                "failure_counts": [0, 1],
                "seeds": 2,
            }
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, spec_file):
    """One recorded sweep shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("recorded")
    traces = str(root / "traces")
    out = str(root / "live")
    code = campaign_main(
        ["--spec", spec_file, "--traces", traces, "--out", out, "--quiet"]
    )
    assert code == 0
    return {"traces": traces, "out": out, "name": "cli-mini"}


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestRecordReplay:
    def test_record_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["record", "--traces", "anywhere"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'record'" in capsys.readouterr().err

    def test_record_writes_one_trace_per_cell(self, recorded):
        names = [n for n in os.listdir(recorded["traces"]) if n.endswith(".trace.jsonl")]
        assert len(names) == 4  # 1 collector x 1 workload x 2 failures x 2 seeds

    def test_replay_reproduces_aggregates_byte_for_byte(self, recorded, tmp_path):
        out = str(tmp_path / "replayed")
        assert main(["replay", recorded["traces"], "--out", out, "--verify"]) == 0
        name = recorded["name"]
        for suffix in (".csv", ".json"):
            live = _read(os.path.join(recorded["out"], name + suffix))
            replayed = _read(os.path.join(out, name + suffix))
            assert replayed == live, f"{suffix} diverged between live and replay"

    def test_replay_single_file(self, recorded, capsys):
        trace = os.path.join(recorded["traces"], os.listdir(recorded["traces"])[0])
        assert main(["replay", trace, "--verify"]) == 0
        output = capsys.readouterr().out
        assert "Replayed:" in output
        assert "metrics:" in output


def _truncated_copy(trace, tmp_path):
    """``trace`` without its footer line, as a killed run leaves it."""
    lines = _read(trace).splitlines(keepends=True)
    path = tmp_path / "cut.trace.jsonl"
    path.write_bytes(b"".join(lines[:-1]))
    return str(path)


class TestVerifyReplaysOnce:
    """``replay FILE --verify`` parses the file once and prints what it did before."""

    @pytest.fixture
    def replay_calls(self, monkeypatch):
        calls = []
        replay = TraceReader.replay

        def counting(self, **kwargs):
            calls.append(kwargs)
            return replay(self, **kwargs)

        monkeypatch.setattr(TraceReader, "replay", counting)
        return calls

    @pytest.fixture
    def trace(self, recorded):
        return os.path.join(recorded["traces"], sorted(os.listdir(recorded["traces"]))[0])

    def test_a_clean_trace_is_replayed_once(self, trace, replay_calls, capsys):
        assert main(["replay", trace]) == 0
        plain = capsys.readouterr()
        del replay_calls[:]
        assert main(["replay", trace, "--verify"]) == 0
        assert len(replay_calls) == 1
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("partial", [[], ["--partial"]])
    def test_a_truncated_trace_fails_verification_after_one_replay(
        self, trace, tmp_path, replay_calls, capsys, partial
    ):
        cut = _truncated_copy(trace, tmp_path)
        assert main(["replay", cut, "--verify", *partial]) == 1
        assert len(replay_calls) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"VERIFY: {cut}: trace is truncated (no footer)\n"

    def test_verify_trace_is_replay_plus_verify_replayed(self, trace, tmp_path):
        cut = _truncated_copy(trace, tmp_path)
        for path in (trace, cut):
            replayed = TraceReader(path).replay(allow_partial=True)
            assert verify_trace(path) == verify_replayed(replayed)
        assert verify_trace(trace) == [] and verify_trace(cut) != []


class TestInspectAndDiff:
    def test_inspect_reports_provenance_and_metrics(self, recorded, capsys):
        trace = os.path.join(
            recorded["traces"], sorted(os.listdir(recorded["traces"]))[0]
        )
        assert main(["inspect", trace]) == 0
        output = capsys.readouterr().out
        assert "repro-trace v2" in output
        assert "cli-mini" in output
        assert "status:       ok" in output

    def test_inspect_always_renders_a_recoveries_row(self, recorded, capsys):
        """Crash-free traces show an explicit 'none', never an omitted section.

        Regression test: counterexample traces from crash-free explorations
        must inspect uniformly with crashing campaign cells.
        """
        outputs = []
        for name in sorted(os.listdir(recorded["traces"])):
            assert main(["inspect", os.path.join(recorded["traces"], name)]) == 0
            outputs.append(capsys.readouterr().out)
        for output in outputs:
            assert "recoveries:" in output
        # The grid holds both zero-failure and one-failure cells.
        assert any("recoveries:   none" in output for output in outputs)
        assert any(
            "recoveries:   none" not in output and "recoveries:" in output
            for output in outputs
        )

    def test_inspect_names_joins_leaves_and_the_schedule(self, tmp_path, capsys):
        from repro import api

        path = str(tmp_path / "dynamic.trace.jsonl")
        api.run(api.load_spec({
            "num_processes": 5, "duration": 100.0, "workload": "gossip", "seed": 3,
            "membership": {"joins": [[20.0, 4]], "leaves": [[60.0, 1]]}, "trace": path,
        }))
        assert main(["inspect", path]) == 0
        output = capsys.readouterr().out
        assert "\n  membership:   p4 joins@20, p1 leaves@60\n" in output
        assert " 1 joins, 1 leaves, " in output and " 1 j," not in output

    def test_inspect_of_a_static_trace_mentions_no_membership(self, recorded, capsys):
        for name in sorted(os.listdir(recorded["traces"])):
            assert main(["inspect", os.path.join(recorded["traces"], name)]) == 0
        output = capsys.readouterr().out
        assert not any(word in output for word in ("membership", "joins", "leaves"))

    def test_diff_of_identical_traces_passes(self, recorded, capsys):
        names = sorted(os.listdir(recorded["traces"]))
        a = os.path.join(recorded["traces"], names[0])
        assert main(["diff", a, a]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_diff_of_different_traces_fails(self, recorded, capsys):
        names = sorted(os.listdir(recorded["traces"]))
        a = os.path.join(recorded["traces"], names[0])
        b = os.path.join(recorded["traces"], names[1])
        assert main(["diff", a, b]) == 1
        assert capsys.readouterr().out.strip()


class TestErrorHandling:
    def test_replay_of_truncated_trace_errors_cleanly(self, recorded, tmp_path, capsys):
        source = os.path.join(
            recorded["traces"], sorted(os.listdir(recorded["traces"]))[0]
        )
        clipped = tmp_path / "clipped.trace.jsonl"
        lines = open(source, encoding="utf-8").readlines()
        clipped.write_text("".join(lines[:-1]), encoding="utf-8")
        assert main(["replay", str(clipped)]) == 2
        assert "no footer" in capsys.readouterr().err
        # --partial replays the intact prefix instead.
        assert main(["replay", str(clipped), "--partial"]) == 0

    def test_missing_file_errors_cleanly(self, capsys):
        assert main(["inspect", "/nonexistent/x.trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err
