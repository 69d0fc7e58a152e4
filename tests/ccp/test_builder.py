"""Tests for the fluent CCP builder."""

import pytest

from repro.ccp.builder import CCPBuilder
from repro.ccp.checkpoint import CheckpointId


class TestBuilderBasics:
    def test_initial_checkpoints_taken_automatically(self):
        ccp = CCPBuilder(3).build()
        for pid in range(3):
            assert ccp.last_stable(pid) == 0

    def test_initial_checkpoints_can_be_disabled(self):
        builder = CCPBuilder(2, initial_checkpoints=False)
        ccp = builder.build()
        assert ccp.last_stable(0) == -1
        assert ccp.volatile_index(0) == 0

    def test_requires_positive_process_count(self):
        with pytest.raises(ValueError):
            CCPBuilder(0)

    def test_checkpoint_returns_sequential_ids(self):
        builder = CCPBuilder(1)
        assert builder.checkpoint(0) == CheckpointId(0, 1)
        assert builder.checkpoint(0) == CheckpointId(0, 2)

    def test_duplicate_message_tags_rejected(self):
        builder = CCPBuilder(2)
        builder.send(0, 1, tag="m")
        with pytest.raises(ValueError):
            builder.send(0, 1, tag="m")

    def test_receive_of_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            CCPBuilder(2).receive("nope")

    def test_auto_tags_are_unique(self):
        builder = CCPBuilder(2)
        tags = {builder.send(0, 1) for _ in range(5)}
        assert len(tags) == 5

    def test_message_exchange_delivers(self):
        builder = CCPBuilder(2)
        builder.message_exchange(0, 1, tag="m")
        ccp = builder.build()
        assert len(ccp.messages()) == 1

    def test_undelivered_message_not_in_ccp(self):
        builder = CCPBuilder(2)
        builder.send(0, 1, tag="lost")
        ccp = builder.build()
        assert ccp.messages() == []

    def test_tags_listed_in_creation_order(self):
        builder = CCPBuilder(2)
        builder.send(0, 1, tag="a")
        builder.send(1, 0, tag="b")
        assert builder.tags() == ["a", "b"]


class TestBuilderDependencyTracking:
    def test_dv_propagation_matches_section_4_2(self):
        builder = CCPBuilder(2)
        # After the initial checkpoints, p0's DV is (1, 0) and p1's is (0, 1).
        assert builder.current_dv(0) == (1, 0)
        assert builder.current_dv(1) == (0, 1)
        builder.message_exchange(0, 1, tag="m")
        assert builder.current_dv(1) == (1, 1)

    def test_checkpoint_stores_pre_increment_vector(self):
        builder = CCPBuilder(2)
        builder.message_exchange(0, 1, tag="m")
        cid = builder.checkpoint(1)
        ccp = builder.build()
        assert ccp.checkpoint(cid).dependency_vector == (1, 1)

    def test_recorded_volatile_dv_attached(self):
        builder = CCPBuilder(2)
        builder.message_exchange(0, 1, tag="m")
        ccp = builder.build()
        assert ccp.checkpoint(ccp.volatile_id(1)).dependency_vector == (1, 1)


class TestBuilderRecordedVsGroundTruth:
    def test_recorded_vectors_match_ground_truth_on_rdt_pattern(self, figure1_ccp):
        for pid in figure1_ccp.processes:
            for cid in figure1_ccp.general_ids(pid):
                recorded = figure1_ccp.checkpoint(cid).dependency_vector
                assert recorded == figure1_ccp.ground_truth_dv(cid)
