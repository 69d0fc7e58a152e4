"""FIG-1: the example CCP of Figure 1 and every fact the paper states about it."""

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import GlobalCheckpoint, is_consistent_global_checkpoint
from repro.ccp.rdt import check_rdt
from repro.ccp.zigzag import ZigzagAnalysis


class TestFigure1:
    def test_checkpoint_structure(self, figure1_ccp):
        # p1: s^0, s^1(=s^last), v1; p2: s^0, s^1, v2 = c2^2; p3: s^0, s^1, s^2, v3.
        assert figure1_ccp.last_stable(0) == 1
        assert figure1_ccp.last_stable(1) == 1
        assert figure1_ccp.last_stable(2) == 2
        assert figure1_ccp.volatile_index(1) == 2

    def test_c_paths_and_z_path(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        m1, m2, m4, m5 = 0, 1, 2, 3
        assert analysis.is_causal_sequence([m1, m2])
        assert analysis.is_causal_sequence([m1, m4])
        assert analysis.is_zigzag_sequence([m5, m4], CheckpointId(0, 1), CheckpointId(2, 2))
        assert not analysis.is_causal_sequence([m5, m4])

    def test_consistency_examples(self, figure1_ccp):
        consistent = GlobalCheckpoint(
            (figure1_ccp.volatile_index(0), 1, 1)
        )  # {v1, s2^1, s3^1}
        inconsistent = GlobalCheckpoint((0, 1, 1))  # {s1^0, s2^1, s3^1}
        assert is_consistent_global_checkpoint(figure1_ccp, consistent)
        assert not is_consistent_global_checkpoint(figure1_ccp, inconsistent)
        # The reason given in the paper: s1^0 -> s2^1.
        assert figure1_ccp.causally_precedes(CheckpointId(0, 0), CheckpointId(1, 1))

    def test_pattern_is_rd_trackable(self, figure1_ccp):
        assert check_rdt(figure1_ccp).is_rdt

    def test_removing_m3_breaks_rdt_exactly_as_stated(self, figure1_without_m3_ccp):
        ccp = figure1_without_m3_ccp
        analysis = ZigzagAnalysis(ccp)
        assert analysis.zigzag_exists(CheckpointId(0, 1), CheckpointId(2, 2))
        assert not ccp.causally_precedes(CheckpointId(0, 1), CheckpointId(2, 2))
        assert not check_rdt(ccp).is_rdt

    def test_no_useless_checkpoints(self, figure1_ccp):
        assert ZigzagAnalysis(figure1_ccp).useless_checkpoints() == ()
