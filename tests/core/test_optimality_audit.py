"""Tests for the safety/optimality auditor (Theorems 4 and 5)."""

from repro.ccp.checkpoint import CheckpointId
from repro.core.obsolete import obsolete_stable_checkpoints_theorem2
from repro.core.optimality import audit_garbage_collection


def _expected_retained(ccp):
    retained = {pid: [] for pid in ccp.processes}
    for cid in ccp.analysis_provider.theorem2_retained():
        retained[cid.pid].append(cid.index)
    return {pid: sorted(indices) for pid, indices in retained.items()}


class TestAudit:
    def test_optimal_retention_passes(self, figure4_ccp):
        audit = audit_garbage_collection(
            figure4_ccp.analysis_provider, _expected_retained(figure4_ccp)
        )
        assert audit.ok and audit.is_safe and audit.is_optimal

    def test_missing_required_checkpoint_is_a_safety_violation(self, figure4_ccp):
        retained = _expected_retained(figure4_ccp)
        retained[1] = [i for i in retained[1] if i != 3]  # drop p2's last checkpoint
        audit = audit_garbage_collection(figure4_ccp.analysis_provider, retained)
        assert not audit.is_safe
        assert CheckpointId(1, 3) in audit.safety_violations

    def test_keeping_identifiably_obsolete_checkpoint_is_an_optimality_violation(
        self, figure4_ccp
    ):
        retained = _expected_retained(figure4_ccp)
        extra = next(iter(obsolete_stable_checkpoints_theorem2(figure4_ccp)))
        retained[extra.pid] = sorted(retained[extra.pid] + [extra.index])
        audit = audit_garbage_collection(figure4_ccp.analysis_provider, retained)
        assert audit.is_safe
        assert not audit.is_optimal
        assert extra in audit.optimality_violations

    def test_optimality_check_can_be_disabled(self, figure4_ccp):
        retained = {
            pid: [cid.index for cid in figure4_ccp.stable_ids(pid)]
            for pid in figure4_ccp.processes
        }
        audit = audit_garbage_collection(
            figure4_ccp.analysis_provider, retained, require_optimality=False
        )
        assert audit.is_safe and audit.is_optimal  # optimality simply not checked
