"""End-to-end tests of ``python -m repro explore`` (run/sweep/replay)."""

from __future__ import annotations

import os
from pathlib import Path

from repro.explore.cli import main


class TestRun:
    def test_clean_configuration_exits_zero(self, capsys):
        code = main(["run", "--processes", "2", "--messages", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "rdt-lgc" in output
        assert "complete schedules" in output

    def test_budget_knob_reports_exhaustion(self, capsys):
        code = main(
            ["run", "--processes", "2", "--messages", "4", "--max-executions", "40"]
        )
        assert code == 0
        assert "budget exhausted" in capsys.readouterr().out

    def test_no_reduction_knob_explores_more(self, capsys):
        main(["run", "--processes", "2", "--messages", "2"])
        reduced = capsys.readouterr().out
        main(["run", "--processes", "2", "--messages", "2", "--no-reduction"])
        full = capsys.readouterr().out

        def executions(output):
            for line in output.splitlines():
                if "executions" in line:
                    return int(line.split("executions")[0].split()[-1])
            raise AssertionError(f"no executions count in {output!r}")

        assert executions(full) > executions(reduced)


class TestSweepWithCanaries:
    def test_canary_sweep_catches_exactly_the_canaries(self, capsys, tmp_path):
        traces = str(tmp_path / "counterexamples")
        code = main(
            [
                "sweep",
                "--processes", "2",
                "--messages", "4",
                "--protocols", "fdas",
                "--collectors", "rdt-lgc,canary-unsafe,canary-hoarder",
                "--canaries",
                "--max-executions", "2000",
                "--expect-violations", "2",
                "--traces", traces,
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "2 with violations" in output
        names = sorted(os.listdir(traces))
        assert names == [
            "fdas-canary-hoarder.trace.jsonl",
            "fdas-canary-unsafe.trace.jsonl",
        ]

    def test_canaries_flag_adds_them_to_the_default_grid(self, capsys, tmp_path):
        traces = str(tmp_path / "counterexamples")
        code = main(
            [
                "sweep",
                "--processes", "2",
                "--messages", "4",
                "--protocols", "fdas",
                "--canaries",
                "--max-executions", "300",
                "--expect-violations", "2",
                "--traces", traces,
                "--quiet",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "7 configurations" in output and "2 with violations" in output
        assert sorted(os.listdir(traces)) == [
            "fdas-canary-hoarder.trace.jsonl",
            "fdas-canary-unsafe.trace.jsonl",
        ]

    def test_replay_of_a_persisted_counterexample(self, capsys, tmp_path):
        traces = str(tmp_path / "counterexamples")
        assert main(
            [
                "sweep",
                "--processes", "2",
                "--messages", "4",
                "--protocols", "fdas",
                "--collectors", "canary-unsafe",
                "--canaries",
                "--max-executions", "2000",
                "--expect-violations", "1",
                "--traces", traces,
            ]
        ) == 0
        capsys.readouterr()
        path = os.path.join(traces, "fdas-canary-unsafe.trace.jsonl")
        assert main(["replay", path]) == 0
        output = capsys.readouterr().out
        assert "byte-identical re-execution: yes" in output
        assert "safety" in output

    def test_unexpected_violation_count_fails(self, capsys):
        code = main(
            [
                "sweep",
                "--processes", "2",
                "--messages", "2",
                "--protocols", "fdas",
                "--collectors", "rdt-lgc",
                "--expect-violations", "1",
            ]
        )
        assert code == 1
        assert "expected exactly 1" in capsys.readouterr().err


class TestSmoke:
    def test_smoke_sweep_is_exhaustive_and_clean(self, capsys):
        # One protocol keeps the tier-1 copy of the gate fast; CI's gates job
        # runs the full-grid `sweep --smoke` without the restriction.
        code = main(
            ["sweep", "--smoke", "--quiet", "--protocols", "fdas",
             "--collectors", "rdt-lgc,none"]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "0 with violations" in output


class TestBudgetValidation:
    def test_a_negative_budget_is_a_one_line_usage_error(self, capsys):
        code = main(["run", "--max-executions", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error: max_executions must be non-negative, got -3"
        ]


class TestReplayInputErrors:
    """A replay path that cannot be replayed exits 2 with one ``error:`` line."""

    @staticmethod
    def _one_error_line(capsys):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        return lines[0]

    def test_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.trace.jsonl")
        assert main(["replay", missing]) == 2
        assert missing in self._one_error_line(capsys)

    def test_trace_without_explorer_provenance(self, capsys):
        golden = Path(__file__).resolve().parents[1] / "golden_traces"
        assert main(["replay", str(golden / "uniform-baseline.trace.jsonl")]) == 2
        assert "no explorer provenance" in self._one_error_line(capsys)

    def test_a_file_that_is_not_a_trace(self, tmp_path, capsys):
        path = tmp_path / "notes.trace.jsonl"
        path.write_text("hello\n", encoding="utf-8")
        assert main(["replay", str(path)]) == 2
        self._one_error_line(capsys)
