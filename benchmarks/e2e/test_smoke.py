"""Smoke test of the end-to-end benchmark (not collected by tier-1).

    python -m pytest benchmarks/e2e -q

Runs every workload at 1/20 size with one repetition, untraced and traced,
and asserts that the last stdout line is the contract's result object and
that it carries exactly the metric names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)


def _run(workload: str, trace: int, out: str) -> dict:
    finished = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0", "--min-reps", "1",
            "--scale", "0.05", "--trace", str(trace), "--out", out,
        ],
        stdout=subprocess.PIPE, text=True, timeout=170, check=False,
    )
    assert finished.returncode == 0, finished.stdout
    return json.loads(finished.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in MANIFEST["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_declared_metrics(workload: str, trace: int, tmp_path) -> None:
    result = _run(workload, trace, str(tmp_path / "result.json"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    with open(tmp_path / "result.json", "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["provenance"]["seed"] == 3
    row = document["workloads"][workload]
    assert row["exact"]["sim_fingerprint"] and row["repetitions"]
    if trace:
        # Layers that take no part in a workload must show zero calls there.
        layers = row["per_layer"]
        if workload.startswith("steady"):
            assert layers["sink.on_event.calls"] == 0 and layers["sink.finalize.calls"] == 0
        if workload != "campaign-sql-240c":
            assert all(
                layers[f"sqlstore.{op}.calls"] == 0
                for op in ("load", "enqueue", "append", "records")
            )
        else:
            assert layers["sqlstore.append.calls"] == row["exact"]["cells"]


def test_compare_same_file_is_clean(tmp_path) -> None:
    out = str(tmp_path / "a.json")
    _run("steady-16p", 0, out)
    finished = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--compare", out, out],
        stdout=subprocess.PIPE, text=True, timeout=60, check=False,
    )
    assert finished.returncode == 0, finished.stdout
    assert "regressed" not in finished.stdout.split("\n\n")[0]
    assert "sim_fingerprint" in finished.stdout
