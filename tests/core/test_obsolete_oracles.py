"""Tests for the obsolescence characterisations (Definition 7, Theorems 1 & 2, Corollary 1)."""

from repro.ccp.checkpoint import CheckpointId
from repro.core.obsolete import (
    _is_retained_theorem1,
    _is_retained_theorem2,
    needless_stable_checkpoints,
    obsolete_per_process,
    obsolete_stable_checkpoints_corollary1,
    obsolete_stable_checkpoints_theorem1,
    obsolete_stable_checkpoints_theorem2,
)
from repro.simulation.trace import TraceRecorder


class TestTheorem1:
    def test_last_stable_checkpoints_are_never_obsolete(self, figure1_ccp):
        obsolete = obsolete_stable_checkpoints_theorem1(figure1_ccp)
        for pid in figure1_ccp.processes:
            assert figure1_ccp.last_stable_id(pid) not in obsolete

    def test_figure1_obsolete_set(self, figure1_ccp):
        obsolete = obsolete_stable_checkpoints_theorem1(figure1_ccp)
        # Only the initial checkpoints of p1 and p3 are obsolete: every other
        # stable checkpoint is either a process's last one or pinned by a
        # dependency on p1's last checkpoint (via m5 and m3).
        assert obsolete == {CheckpointId(0, 0), CheckpointId(2, 0)}

    def test_figure3_hole(self, figure3_ccp):
        """An obsolete checkpoint can sit between two retained ones (the Figure 3 holes)."""
        obsolete = obsolete_stable_checkpoints_theorem1(figure3_ccp)
        assert CheckpointId(0, 2) in obsolete
        assert CheckpointId(0, 1) not in obsolete
        assert CheckpointId(0, 3) not in obsolete

    def test_retained_is_complement_of_obsolete(self, figure3_ccp):
        obsolete = obsolete_stable_checkpoints_theorem1(figure3_ccp)
        retained = figure3_ccp.analysis_provider.theorem1_retained()
        all_stable = {
            cid for pid in figure3_ccp.processes for cid in figure3_ccp.stable_ids(pid)
        }
        assert obsolete | retained == all_stable
        assert obsolete & retained == set()


class TestLemmasAndEquivalences:
    def test_needless_equals_theorem1(self, figure1_ccp, figure3_ccp, figure4_ccp):
        """Lemma 3 + Theorem 1: obsolete iff needless in the current cut."""
        for ccp in (figure1_ccp, figure3_ccp, figure4_ccp):
            assert needless_stable_checkpoints(ccp) == obsolete_stable_checkpoints_theorem1(ccp)

    def test_lemma2_single_failures_suffice(self, figure1_ccp, figure3_ccp):
        """Lemma 2: needless w.r.t. singletons == needless w.r.t. all faulty sets."""
        for ccp in (figure1_ccp, figure3_ccp):
            assert needless_stable_checkpoints(ccp, singletons_only=True) == (
                needless_stable_checkpoints(ccp)
            )

    def test_theorem2_is_weaker_than_theorem1(self, figure1_ccp, figure3_ccp, figure4_ccp):
        """Causal knowledge can only identify a subset of the obsolete checkpoints."""
        for ccp in (figure1_ccp, figure3_ccp, figure4_ccp):
            assert obsolete_stable_checkpoints_theorem2(ccp) <= (
                obsolete_stable_checkpoints_theorem1(ccp)
            )

    def test_corollary1_equals_theorem2_on_rdt_patterns(
        self, figure1_ccp, figure3_ccp, figure4_ccp
    ):
        """Corollary 1 is Theorem 2 re-expressed over dependency vectors."""
        for ccp in (figure1_ccp, figure3_ccp, figure4_ccp):
            assert obsolete_stable_checkpoints_corollary1(ccp) == (
                obsolete_stable_checkpoints_theorem2(ccp)
            )


class TestFigure4Gap:
    def test_s2_1_is_obsolete_but_not_identifiable_from_causal_knowledge(self, figure4_ccp):
        """The paper's point about Figure 4: s2^1 is obsolete (Theorem 1) yet
        p2 cannot know it, because it never learns that p3 advanced past s3^1."""
        theorem1 = obsolete_stable_checkpoints_theorem1(figure4_ccp)
        theorem2 = obsolete_stable_checkpoints_theorem2(figure4_ccp)
        gap = theorem1 - theorem2
        assert CheckpointId(1, 1) in gap

    def test_identifiable_obsolete_checkpoints_match_figure4(self, figure4_ccp):
        theorem2 = obsolete_stable_checkpoints_theorem2(figure4_ccp)
        assert theorem2 == {CheckpointId(1, 2), CheckpointId(2, 1), CheckpointId(2, 2)}


class TestLiteralTranscriptionsAfterALeave:
    """``CCP.departed``: a departed process pins nothing and nothing pins its
    checkpoints, in the literal transcriptions as in the recorder's view."""

    def _ccp(self):
        # p_2 takes s_2^1 and tells p_1, which takes s_1^1; then p_2 leaves.
        recorder = TraceRecorder(3)
        for pid in range(3):
            recorder.record_checkpoint(pid, 0, (0, 0, 0), forced=False, time=1.0)
        recorder.record_checkpoint(2, 1, (0, 0, 1), forced=False, time=2.0)
        recorder.record_send(2, 1, 0, 3.0)
        recorder.record_receive(0, 4.0)
        recorder.record_checkpoint(1, 1, (0, 1, 2), forced=False, time=5.0)
        recorder.record_leave(2, 6.0)
        return recorder.ccp()

    def test_literal_equals_view(self):
        ccp = self._ccp()
        stable = [cid for pid in ccp.processes for cid in ccp.stable_ids(pid)]
        # Without the exclusion s_2^1 would pin s_1^0, and s_2^1 would be
        # retained as p_2's last checkpoint.
        expected = {CheckpointId(0, 0), CheckpointId(1, 1)}
        for literal, view in (
            (_is_retained_theorem1, ccp.analysis_provider.theorem1_retained()),
            (_is_retained_theorem2, ccp.analysis_provider.theorem2_retained()),
        ):
            assert {cid for cid in stable if literal(ccp, cid)} == view == expected


class TestHelpers:
    def test_obsolete_per_process_groups_and_sorts(self, figure3_ccp):
        obsolete = obsolete_stable_checkpoints_theorem1(figure3_ccp)
        grouped = obsolete_per_process(figure3_ccp, obsolete)
        assert len(grouped) == figure3_ccp.num_processes
        flattened = {
            CheckpointId(pid, index)
            for pid, indices in enumerate(grouped)
            for index in indices
        }
        assert flattened == obsolete
        for indices in grouped:
            assert indices == sorted(indices)
