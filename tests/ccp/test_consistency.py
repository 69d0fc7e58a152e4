"""Tests for consistent global checkpoints."""

import pytest

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import (
    GlobalCheckpoint,
    all_consistent_global_checkpoints,
    is_consistent_global_checkpoint,
)


class TestGlobalCheckpoint:
    def test_of_mapping_and_sequence(self):
        assert GlobalCheckpoint.of({0: 1, 1: 2}) == GlobalCheckpoint((1, 2))
        assert GlobalCheckpoint.of([1, 2]).indices == (1, 2)

    def test_of_sparse_mapping_rejected(self):
        # A missing pid used to be silently padded with index 0; it is a
        # caller error (one component per process is required).
        with pytest.raises(ValueError, match="process\\(es\\) \\[1\\]"):
            GlobalCheckpoint.of({0: 1, 2: 2})
        with pytest.raises(ValueError, match="empty"):
            GlobalCheckpoint.of({})

    def test_members(self):
        gc = GlobalCheckpoint((1, 0))
        assert list(gc.members()) == [CheckpointId(0, 1), CheckpointId(1, 0)]

    def test_rolled_back_count(self, figure1_ccp):
        line = GlobalCheckpoint((0, 0, 0))
        # p0 loses 2 general checkpoints (s^1 and v), p1 loses 2, p2 loses 3.
        assert line.rolled_back_count(figure1_ccp) == 7


class TestConsistencyChecks:
    def test_paper_examples_from_figure1(self, figure1_ccp):
        consistent = GlobalCheckpoint((figure1_ccp.volatile_index(0), 1, 1))
        inconsistent = GlobalCheckpoint((0, 1, 1))
        assert is_consistent_global_checkpoint(figure1_ccp, consistent)
        assert not is_consistent_global_checkpoint(figure1_ccp, inconsistent)

    def test_zigzag_method_agrees_on_rdt_pattern(self, figure1_ccp):
        for candidate in all_consistent_global_checkpoints(figure1_ccp):
            assert is_consistent_global_checkpoint(
                figure1_ccp, candidate, method="zigzag"
            )

    def test_unknown_method_rejected(self, figure1_ccp):
        with pytest.raises(ValueError):
            is_consistent_global_checkpoint(
                figure1_ccp, GlobalCheckpoint((0, 0, 0)), method="nope"
            )

    def test_wrong_size_rejected(self, figure1_ccp):
        with pytest.raises(ValueError):
            is_consistent_global_checkpoint(figure1_ccp, GlobalCheckpoint((0, 0)))

    def test_unknown_member_rejected(self, figure1_ccp):
        with pytest.raises(KeyError):
            is_consistent_global_checkpoint(figure1_ccp, GlobalCheckpoint((9, 0, 0)))

    def test_initial_line_always_consistent(self, figure2_ccp):
        assert is_consistent_global_checkpoint(figure2_ccp, GlobalCheckpoint((0, 0)))
