"""Tests for the centralized recovery manager."""

from repro.ccp.checkpoint import CheckpointId
from repro.recovery.manager import RecoveryManager
from repro.recovery.recovery_line import recovery_line, rolled_back_checkpoints


class TestRollbackPlans:
    def test_plan_structure(self, figure3_ccp):
        plan = RecoveryManager().plan(figure3_ccp.analysis_provider, [1, 2])
        assert plan.faulty == (1, 2)
        assert plan.recovery_line.indices == (1, 2, 1, figure3_ccp.volatile_index(3))
        assert set(plan.rolled_back_processes()) == {0, 1, 2}
        assert not plan.must_roll_back(3)

    def test_last_interval_vector(self, figure3_ccp):
        plan = RecoveryManager().plan(figure3_ccp.analysis_provider, [1, 2])
        # Rolled-back processes: LI = component + 1; survivors: LI = volatile index.
        assert plan.last_interval_vector == (2, 3, 2, figure3_ccp.volatile_index(3))

    def test_rollback_for_and_as_dict(self, figure3_ccp):
        plan = RecoveryManager().plan(figure3_ccp.analysis_provider, [1, 2])
        directive = plan.rollback_for(2)
        assert directive is not None and directive.rollback_index == 1
        assert plan.as_dict()[0] == 1
        assert plan.rollback_for(3) is None

    def test_faulty_process_always_rolls_back(self, figure1_ccp):
        for pid in figure1_ccp.processes:
            plan = RecoveryManager().plan(figure1_ccp.analysis_provider, [pid])
            assert plan.must_roll_back(pid)

    def test_outcome_accounting(self, figure3_ccp):
        plan = RecoveryManager().plan(figure3_ccp.analysis_provider, [1, 2])
        rolled_back = rolled_back_checkpoints(figure3_ccp, plan.recovery_line)
        assert len(plan.rollbacks) == 3
        assert len(rolled_back) == plan.recovery_line.rolled_back_count(figure3_ccp)
        assert CheckpointId(2, 2) in rolled_back
        assert plan.recovery_line == recovery_line(figure3_ccp, [1, 2])

    def test_no_failure_plan_is_a_no_op(self, figure1_ccp):
        plan = RecoveryManager().plan(figure1_ccp.analysis_provider, [])
        assert plan.rollbacks == ()
        assert plan.last_interval_vector == tuple(
            figure1_ccp.volatile_index(pid) for pid in figure1_ccp.processes
        )
