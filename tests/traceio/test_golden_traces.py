"""Simulator regression gate: byte-identical traces for seeded runs.

The transport refactor's non-negotiable invariant is that simulated
executions are unchanged: for every seeded run, the v2 trace artifact
written through the refactored stack must be byte-identical to the one the
pre-refactor stack wrote.  The golden artifacts under
``tests/golden_traces/`` were generated from the pre-refactor tree; this
test re-runs the same protocol x collector x fault-model matrix and
compares raw bytes.

Regenerating (only legitimate when the trace *format* changes, never to
absorb an execution change):

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/traceio/test_golden_traces.py
"""

import json
import os

import pytest

from repro.simulation.channels import (
    DuplicatingChannel,
    GilbertElliottChannel,
    PartitionSchedule,
    UniformChannel,
)
from repro.simulation.failures import FailureSchedule
from repro.simulation.network import NetworkConfig
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.workloads import make_workload
from repro.traceio.cli import main as trace_main
from repro.traceio.reader import verify_trace

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden_traces")


def _golden_matrix():
    """name -> SimulationConfig factory (protocol x collector x fault model)."""
    return {
        "uniform-baseline": lambda: SimulationConfig(
            num_processes=3,
            duration=40.0,
            workload=make_workload("uniform-random"),
            seed=101,
            trace_meta={"golden": "uniform-baseline"},
        ),
        "lossy-uniform": lambda: SimulationConfig(
            num_processes=4,
            duration=40.0,
            workload=make_workload("uniform-random"),
            network=NetworkConfig(jitter=0.8, drop_probability=0.2),
            seed=202,
            trace_meta={"golden": "lossy-uniform"},
        ),
        "gilbert-elliott-crash": lambda: SimulationConfig(
            num_processes=3,
            duration=40.0,
            workload=make_workload("uniform-random"),
            network=NetworkConfig(
                channel=GilbertElliottChannel(loss_bad=0.6, p_good_to_bad=0.1)
            ),
            failures=FailureSchedule.of([(20.0, 1)]),
            seed=303,
            trace_meta={"golden": "gilbert-elliott-crash"},
        ),
        "duplicating": lambda: SimulationConfig(
            num_processes=3,
            duration=40.0,
            workload=make_workload("uniform-random"),
            network=NetworkConfig(
                channel=DuplicatingChannel(
                    channel=UniformChannel(drop_probability=0.1),
                    duplicate_probability=0.3,
                )
            ),
            seed=404,
            trace_meta={"golden": "duplicating"},
        ),
        "fdi-partitioned-fifo": lambda: SimulationConfig(
            num_processes=4,
            duration=40.0,
            workload=make_workload("ring"),
            protocol="fdi",
            network=NetworkConfig(
                partitions=PartitionSchedule.of([(10.0, 20.0, [[0, 1], [2, 3]])]),
                fifo=True,
            ),
            seed=505,
            trace_meta={"golden": "fdi-partitioned-fifo"},
        ),
        "cbr-wang-coordinated-crash": lambda: SimulationConfig(
            num_processes=3,
            duration=40.0,
            workload=make_workload("uniform-random"),
            protocol="cbr",
            collector="wang-coordinated",
            failures=FailureSchedule.of([(25.0, 2)]),
            seed=606,
            trace_meta={"golden": "cbr-wang-coordinated-crash"},
        ),
        # Named for the compacting recorder it was first recorded with;
        # compaction never wrote a record, so a plain run writes these bytes.
        "manivannan-singhal-pruned": lambda: SimulationConfig(
            num_processes=3,
            duration=40.0,
            workload=make_workload("client-server"),
            collector="manivannan-singhal",
            seed=707,
            trace_meta={"golden": "manivannan-singhal-pruned"},
        ),
    }


@pytest.mark.parametrize("name", sorted(_golden_matrix()))
def test_golden_trace_is_byte_identical(name, tmp_path):
    factory = _golden_matrix()[name]
    golden_path = os.path.join(GOLDEN_DIR, f"{name}.trace.jsonl")
    fresh_path = str(tmp_path / f"{name}.trace.jsonl")
    config = factory()
    import dataclasses

    SimulationRunner(dataclasses.replace(config, trace_path=fresh_path)).run()
    verify_trace(fresh_path)
    with open(fresh_path, "rb") as handle:
        fresh = handle.read()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(golden_path, "wb") as handle:
            handle.write(fresh)
    assert os.path.exists(golden_path), (
        f"missing golden trace {golden_path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    with open(golden_path, "rb") as handle:
        golden = handle.read()
    assert fresh == golden, (
        f"trace for seeded run {name!r} diverged from the pre-refactor golden "
        f"artifact — the refactor changed a simulated execution"
    )


@pytest.mark.parametrize("name", sorted(_golden_matrix()))
def test_golden_trace_verifies_clean(name):
    assert verify_trace(os.path.join(GOLDEN_DIR, f"{name}.trace.jsonl")) == []


class TestVerifyHoldsRdtLgcToItsSpaceBound:
    """``verify`` fails an RDT-LGC trace whose storage sample exceeds ``n`` per process."""

    @staticmethod
    def _samples_over(name, bound):
        with open(os.path.join(GOLDEN_DIR, f"{name}.trace.jsonl"), encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle][1:-1]
        return [r for r in records if r[0] == "S" and max(r[2]) > bound]

    def test_a_sample_raised_to_n_plus_one_fails(self, tmp_path, capsys):
        with open(os.path.join(GOLDEN_DIR, "uniform-baseline.trace.jsonl"), "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        header = json.loads(lines[0])
        assert header["collector"] == "rdt-lgc" and header["num_processes"] == 3
        index = next(i for i, line in enumerate(lines) if line.startswith(b'["S",'))
        _, time, retained = json.loads(lines[index])
        retained[1] = 4
        lines[index] = json.dumps(["S", time, retained], separators=(",", ":")).encode() + b"\n"
        path = tmp_path / "over-bound.trace.jsonl"
        path.write_bytes(b"".join(lines))
        message = (
            f"{path}: the storage sample at time {time} has process 1 retaining 4 "
            f"checkpoints, over RDT-LGC's bound of n = 3"
        )
        assert verify_trace(str(path)) == [message]
        assert trace_main(["replay", str(path), "--verify"]) == 1
        assert capsys.readouterr().err == f"VERIFY: {message}\n"

    def test_other_collectors_are_not_held_to_it(self):
        # Wang's coordinated collector retains far more than n = 3 between rounds.
        assert self._samples_over("cbr-wang-coordinated-crash", 3)
        assert verify_trace(
            os.path.join(GOLDEN_DIR, "cbr-wang-coordinated-crash.trace.jsonl")
        ) == []
