"""The per-process analysis table: what it prints for a leaver, and where its
dependency-vector column comes from."""

from __future__ import annotations

import glob
import os

import pytest

from repro.membership import MembershipSchedule
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.workloads import make_workload
from repro.traceio import TraceReader, analysis_table

GOLDEN_TRACES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "golden_traces", "*.jsonl"))
)


def _leave_run(seed: int, *, crash: bool = False) -> SimulationRunner:
    """Four processes, p3 leaves at t=20 (and p1 crashes at t=30 if asked)."""
    runner = SimulationRunner(
        SimulationConfig(
            num_processes=4,
            duration=40.0,
            workload=make_workload("uniform-random"),
            seed=seed,
            membership=MembershipSchedule.of(leaves=[(20.0, 3)]),
            failures=FailureSchedule.of([(30.0, 1)] if crash else []),
        )
    )
    runner.run()
    return runner


def _rows(table_text: str):
    lines = table_text.splitlines()
    return {int(line.split()[0]): line.split() for line in lines[3:]}


class TestDepartedProcess:
    def test_the_leaver_has_no_recovery_line(self):
        runner = _leave_run(1)
        assert runner.trace.departed == {3}
        rows = _rows(analysis_table(runner.trace).render())
        # A departed process holds no state and cannot fail: no Lemma-1 line.
        assert rows[3][5] == "-"
        assert rows[3][6] != "-"  # its last checkpoint still has a vector
        for pid in (0, 1, 2):
            assert rows[pid][5].startswith("(")


SOURCES = [os.path.basename(path) for path in GOLDEN_TRACES] + [
    f"crash-and-leave-{seed}" for seed in (1, 2, 3)
]


def _recorder(source: str):
    if source.startswith("crash-and-leave-"):
        runner = _leave_run(int(source.rsplit("-", 1)[1]), crash=True)
        assert runner.recoveries and runner.trace.departed == {3}
        return runner.trace
    path = os.path.join(os.path.dirname(GOLDEN_TRACES[0]), source)
    return TraceReader(path).replay().recorder


class TestDependencyVectorColumn:
    def test_all_golden_traces_are_covered(self):
        assert len(GOLDEN_TRACES) == 7

    @pytest.mark.parametrize("source", SOURCES)
    def test_knowledge_row_equals_the_event_graph_vector(self, source):
        ccp = _recorder(source).ccp()
        view = ccp.analysis_provider
        stable = [cid for pid in ccp.processes for cid in ccp.stable_ids(pid)]
        assert stable
        for cid in stable:
            assert view.dependency_vector(cid) == ccp.ground_truth_dv(cid), f"{source}: {cid}"
