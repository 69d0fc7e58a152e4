"""A recovery record is a function of the replayed prefix.

Lemma 1 reads causal precedence among checkpoints only, so the recovery
line, the rollbacks and the last-interval vector of every recovery (``v``)
record must be what :class:`~repro.recovery.manager.RecoveryManager` plans
on the knowledge view of the records before it — no volatile dependency
vector of the run's processes needed.  Checked record by record on every
golden trace with a recovery and on a traced simulator run with several.
"""

from __future__ import annotations

import os

import pytest

from repro.recovery.manager import RecoveryManager
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload
from repro.traceio.format import TAG_PARTITION, TAG_RECOVERY, TAG_SAMPLE, read_lines
from repro.traceio.reader import apply_event_record

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden_traces")


def _planned_sessions(path: str) -> int:
    """Replay ``path`` record by record; at each ``v`` record, before applying
    it, compare it with the plan of the prefix.  Returns the sessions checked."""
    manager = RecoveryManager()
    recorder = None
    sessions = 0
    for number, record in read_lines(path):
        if isinstance(record, dict):
            if recorder is None:  # the header; a later object is the footer
                recorder = TraceRecorder(record["num_processes"])
            continue
        assert recorder is not None
        if apply_event_record(recorder, record) or record[0] in (TAG_SAMPLE, TAG_PARTITION):
            continue
        assert record[0] == TAG_RECOVERY, f"{path}:{number}: unexpected record {record!r}"
        _, faulty, line, rollbacks, last_interval = record
        plan = manager.plan(recorder.knowledge_view(), faulty)
        assert plan.faulty == tuple(faulty)
        assert plan.recovery_line.indices == tuple(line), f"{path}:{number}"
        assert [[r.pid, r.rollback_index] for r in plan.rollbacks] == rollbacks
        assert plan.last_interval_vector == tuple(last_interval)
        recorder.apply_recovery(plan)
        sessions += 1
    return sessions


@pytest.mark.parametrize("name", ["gilbert-elliott-crash", "cbr-wang-coordinated-crash"])
def test_golden_recovery_records_are_the_plan_of_their_prefix(name):
    assert _planned_sessions(os.path.join(GOLDEN_DIR, f"{name}.trace.jsonl")) == 1


def test_a_simulated_runs_recovery_records_are_the_plan_of_their_prefix(tmp_path):
    path = str(tmp_path / "crashes.trace.jsonl")
    config = SimulationConfig(
        num_processes=4,
        duration=120.0,
        workload=UniformRandomWorkload(mean_message_gap=0.5, mean_checkpoint_gap=4.0),
        failures=FailureSchedule.of([(30.0, 1), (55.0, 3), (80.0, 0), (100.0, 1)]),
        seed=11,
        trace_path=path,
    )
    runner = SimulationRunner(config)
    try:
        recoveries = runner.run().recoveries
    finally:
        runner.close()
    assert len(recoveries) == 4
    assert _planned_sessions(path) == 4
