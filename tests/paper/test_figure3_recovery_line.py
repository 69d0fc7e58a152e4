"""FIG-3: recovery-line determination and obsolete-checkpoint identification.

The exact message pattern of Figure 3 cannot be reconstructed from the paper's
text (only the checkpoint labels are given), so these tests exercise a
structurally equivalent 4-process scenario (see ``figure3_builder`` in
``repro.scenarios.figures`` and the Figure 3 section of EXPERIMENTS.md): the
recovery line for ``F = {p2, p3}`` excludes the last stable checkpoint of
``p3`` because ``s2^last -> s3^last``, and Theorem 1 identifies obsolete
checkpoints including a "hole" between two retained checkpoints of the same
process.
"""

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.rdt import check_rdt
from repro.core.obsolete import (
    needless_stable_checkpoints,
    obsolete_stable_checkpoints_theorem1,
)
from repro.recovery.recovery_line import recovery_line, recovery_line_brute_force


class TestFigure3RecoveryLine:
    def test_pattern_is_rd_trackable(self, figure3_ccp):
        assert check_rdt(figure3_ccp).is_rdt

    def test_last_stable_of_p2_precedes_last_stable_of_p3(self, figure3_ccp):
        assert figure3_ccp.causally_precedes(
            figure3_ccp.last_stable_id(1), figure3_ccp.last_stable_id(2)
        )

    def test_recovery_line_excludes_p3_last_stable(self, figure3_ccp):
        line = recovery_line(figure3_ccp, [1, 2])
        assert line.indices[2] < figure3_ccp.last_stable(2)

    def test_recovery_line_components(self, figure3_ccp):
        line = recovery_line(figure3_ccp, [1, 2])
        assert line.indices == (1, 2, 1, figure3_ccp.volatile_index(3))

    def test_lemma1_matches_definition5(self, figure3_ccp):
        assert recovery_line(figure3_ccp, [1, 2]) == recovery_line_brute_force(
            figure3_ccp, [1, 2]
        )

    def test_gray_checkpoints_are_exactly_those_preceded_by_faulty_lasts(self, figure3_ccp):
        """Lemma 1's reading: a checkpoint is rolled back iff it is causally
        preceded by the last stable checkpoint of some faulty process."""
        line = recovery_line(figure3_ccp, [1, 2])
        faulty_lasts = [figure3_ccp.last_stable_id(1), figure3_ccp.last_stable_id(2)]
        for pid in figure3_ccp.processes:
            for cid in figure3_ccp.general_ids(pid):
                preceded = any(
                    figure3_ccp.causally_precedes(last, cid) for last in faulty_lasts
                )
                rolled_back = cid.index > line.indices[pid]
                assert preceded == rolled_back


class TestFigure3ObsoleteCheckpoints:
    def test_exact_obsolete_set(self, figure3_ccp):
        obsolete = obsolete_stable_checkpoints_theorem1(figure3_ccp)
        assert obsolete == {
            CheckpointId(0, 0),
            CheckpointId(0, 2),
            CheckpointId(1, 0),
            CheckpointId(1, 1),
            CheckpointId(2, 0),
            CheckpointId(3, 0),
            CheckpointId(3, 1),
            CheckpointId(3, 2),
        }

    def test_obsolete_hole(self, figure3_ccp):
        obsolete = obsolete_stable_checkpoints_theorem1(figure3_ccp)
        assert CheckpointId(0, 2) in obsolete
        assert CheckpointId(0, 1) not in obsolete
        assert CheckpointId(0, 3) not in obsolete

    def test_needlessness_matches(self, figure3_ccp):
        assert needless_stable_checkpoints(figure3_ccp) == (
            obsolete_stable_checkpoints_theorem1(figure3_ccp)
        )
