"""``python -m repro fuzz`` command-line behaviour and exit codes."""

from __future__ import annotations

import glob
import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.fuzz.cli import main


class TestRun:
    def test_clean_run_exits_zero_and_reports(self, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        code = main(
            [
                "run", "--target", "ring", "--budget", "40",
                "--corpus", str(tmp_path / "corpus"),
                "--report", report,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz ring (guided)" in out
        assert "corpus saved" in out
        document = json.loads(open(report, encoding="utf-8").read())
        assert document["target"] == "ring"
        assert document["stats"]["executions"] <= 40
        assert document["findings"] == []

    def test_violating_run_exits_one_and_persists_counterexample(
        self, tmp_path, capsys
    ):
        corpus = str(tmp_path / "corpus")
        code = main(
            [
                "run", "--target", "canary-hoarder", "--budget", "200",
                "--corpus", corpus, "--stop-after-findings", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION [optimality]" in out
        assert "replay with: python -m repro explore replay" in out
        assert glob.glob(corpus + "/counterexamples/*.trace.jsonl")

    def test_expect_violations_flips_the_exit_code(self, tmp_path, capsys):
        argv = [
            "run", "--target", "canary-hoarder", "--budget", "200",
            "--corpus", str(tmp_path / "corpus"),
            "--stop-after-findings", "1", "--expect-violations", "1",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(
            ["run", "--target", "ring", "--budget", "20",
             "--expect-violations", "1"]
        ) == 1
        assert "expected exactly 1" in capsys.readouterr().err

    def test_unknown_target_is_a_usage_error(self, capsys):
        assert main(["run", "--target", "bogus"]) == 2
        assert "accepted" in capsys.readouterr().err

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(
            ["run", "--target", "canary-unsafe", "--budget", "-1",
             "--corpus", str(corpus)]
        )
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: budget must be non-negative, got -1"
        ]
        assert not corpus.exists()


class TestReplayAndStats:
    @pytest.fixture()
    def corpus(self, tmp_path):
        root = str(tmp_path / "corpus")
        code = main(["run", "--target", "ring-crash", "--budget", "60",
                     "--corpus", root])
        assert code == 0
        return root

    def test_replay_round_trips_an_entry(self, corpus, capsys):
        entry = sorted(glob.glob(corpus + "/entries/*.trace.jsonl"))[0]
        assert main(["replay", entry]) == 0
        assert "byte-identical re-execution: yes" in capsys.readouterr().out

    def test_stats_summarises_the_corpus(self, corpus, capsys):
        assert main(["stats", corpus]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "coverage" in out
        assert "origins:" in out


class TestInputErrors:
    """Bad paths and garbled corpora exit 2 with one ``error:`` line."""

    @staticmethod
    def _one_error_line(capsys):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        return lines[0]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"entries":[{"id":"x"}]}', "entry 0 does not parse"),
            ('{"entries": [\n', "not a JSON document"),
            ("[]", "expected a JSON object"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_garbled_index(self, tmp_path, capsys, command, text, expected):
        root = tmp_path / "corpus"
        root.mkdir()
        index = root / "index.json"
        index.write_text(text, encoding="utf-8")
        argv = (
            ["run", "--target", "ring", "--budget", "5", "--corpus", str(root)]
            if command == "run"
            else ["stats", str(root)]
        )
        assert main(argv) == 2
        line = self._one_error_line(capsys)
        assert str(index) in line and expected in line
        assert index.read_text(encoding="utf-8") == text  # nothing rewritten

    def test_replay_of_a_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.trace.jsonl")
        assert main(["replay", missing]) == 2
        assert missing in self._one_error_line(capsys)

    def test_replay_of_a_trace_without_explorer_provenance(self, capsys):
        # A simulator trace: replayable, but written without explorer provenance.
        golden = Path(__file__).resolve().parents[1] / "golden_traces"
        assert main(["replay", str(golden / "uniform-baseline.trace.jsonl")]) == 2
        assert "no explorer provenance" in self._one_error_line(capsys)


class TestUmbrellaDispatch:
    def test_repro_fuzz_routes_to_the_fuzzer(self, capsys):
        code = repro_main(["fuzz", "run", "--target", "ring", "--budget",
                           "15", "--explorer-seeds", "0"])
        assert code == 0
        assert "fuzz ring (guided)" in capsys.readouterr().out
