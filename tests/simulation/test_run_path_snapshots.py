"""Audits and recovery sessions read the recorder's knowledge view.

Theorems 1 and 2 and Lemma 1 are statements about causal precedence among
checkpoints, which the knowledge view answers from its rows: a run's audits
and recovery sessions build no :class:`~repro.ccp.pattern.CCP`.  A snapshot
is for what needs the event graph, and shares the recorder's stored-vector
map, which a recovery session rebinds instead of editing.
"""

from __future__ import annotations

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP
from repro.recovery.manager import RecoveryManager
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload


def _count_snapshots(monkeypatch):
    built = []
    init = CCP.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CCP, "__init__", counting)
    return built


class TestTheRunPathBuildsNoSnapshot:
    def test_a_fully_audited_run_with_crashes(self, monkeypatch):
        built = _count_snapshots(monkeypatch)
        config = SimulationConfig(
            num_processes=6,
            duration=150.0,
            workload=UniformRandomWorkload(mean_message_gap=0.5, mean_checkpoint_gap=4.0),
            failures=FailureSchedule.of([(40.0, 1), (70.0, 4), (100.0, 0), (130.0, 1)]),
            audit="full",
            seed=1,
        )
        result = SimulationRunner(config).run()
        assert len(result.recoveries) == 4
        assert len(result.audits) == 5
        assert result.all_audits_safe and result.all_audits_optimal
        assert built == []

    def test_keep_final_ccp_builds_the_one_it_keeps(self, monkeypatch):
        built = _count_snapshots(monkeypatch)
        config = SimulationConfig(
            num_processes=3,
            duration=40.0,
            workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
            failures=FailureSchedule.of([(20.0, 2)]),
            audit="full",
            seed=4,
            keep_final_ccp=True,
        )
        result = SimulationRunner(config).run()
        assert built == [result.final_ccp]


def _recorder_before_a_session():
    """p0 sends to p1, which then stores s_1^1 and s_1^2: a crash of p0
    rolls p1 back to s_1^0, discarding both."""
    recorder = TraceRecorder(2)
    recorder.record_checkpoint(0, 0, (0, 0), forced=False, time=0.0)
    recorder.record_checkpoint(1, 0, (0, 0), forced=False, time=0.0)
    recorder.record_send(0, 1, 1, 1.0)
    recorder.record_receive(1, 2.0)
    recorder.record_checkpoint(1, 1, (1, 1), forced=False, time=3.0)
    recorder.record_checkpoint(1, 2, (1, 2), forced=False, time=4.0)
    return recorder


class TestASnapshotKeepsItsVectorsAcrossASession:
    def test_the_session_rebinds_the_shared_map(self):
        recorder = _recorder_before_a_session()
        before = recorder.ccp()
        plan = RecoveryManager().plan(recorder.knowledge_view(), [0])
        assert plan.rollback_for(1).rollback_index == 0
        recorder.apply_recovery(plan)
        # s_1^1 is stored again, with another vector.
        recorder.record_checkpoint(1, 1, (0, 2), forced=True, time=5.0)
        after = recorder.ccp()
        discarded = CheckpointId(1, 2)
        reused = CheckpointId(1, 1)
        assert before.checkpoint(discarded).dependency_vector == (1, 2)
        assert before.checkpoint(reused).dependency_vector == (1, 1)
        # Index 2 is p1's volatile checkpoint now, which has no stored vector.
        assert after.is_volatile(discarded)
        assert after.checkpoint(discarded).dependency_vector is None
        assert discarded not in recorder.recorded_checkpoint_dvs()
        assert after.checkpoint(reused).dependency_vector == (0, 2)
