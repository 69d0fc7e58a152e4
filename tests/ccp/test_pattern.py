"""Tests for the CCP structure: general checkpoints, intervals, causal precedence."""

import pytest

from repro.causality.events import M_ID, M_RECEIVE_INTERVAL, M_SEND_INTERVAL, EventId
from repro.ccp.builder import CCPBuilder
from repro.ccp.checkpoint import CheckpointId


class TestStructure:
    def test_last_stable_and_volatile_index(self, figure1_ccp):
        assert figure1_ccp.last_stable(0) == 1
        assert figure1_ccp.volatile_index(0) == 2
        assert figure1_ccp.last_stable(2) == 2
        assert figure1_ccp.volatile_index(2) == 3

    def test_stable_and_general_ids(self, figure1_ccp):
        assert figure1_ccp.stable_ids(0) == [CheckpointId(0, 0), CheckpointId(0, 1)]
        assert figure1_ccp.general_ids(0)[-1] == figure1_ccp.volatile_id(0)

    def test_total_stable_checkpoints(self, figure1_ccp):
        assert figure1_ccp.total_stable_checkpoints() == 7

    def test_checkpoint_lookup_and_kind(self, figure1_ccp):
        stable = figure1_ccp.checkpoint(CheckpointId(0, 1))
        assert stable.is_stable
        volatile = figure1_ccp.checkpoint(figure1_ccp.volatile_id(0))
        assert volatile.is_volatile

    def test_unknown_checkpoint_rejected(self, figure1_ccp):
        with pytest.raises(KeyError):
            figure1_ccp.checkpoint(CheckpointId(0, 9))
        with pytest.raises(KeyError):
            figure1_ccp.causally_precedes(CheckpointId(0, 9), CheckpointId(0, 0))

    def test_last_stable_id_requires_a_stable_checkpoint(self):
        ccp = CCPBuilder(1, initial_checkpoints=False).build()
        with pytest.raises(ValueError):
            ccp.last_stable_id(0)

    def test_all_checkpoints_counts_stable_plus_volatile(self, figure1_ccp):
        assert len(figure1_ccp.all_checkpoints()) == 7 + 3


class TestIntervals:
    def test_interval_of_events(self):
        builder = CCPBuilder(2)
        builder.send(0, 1, tag="m1")      # p0 interval 1
        builder.checkpoint(0)             # s0^1
        builder.send(0, 1, tag="m2")      # p0 interval 2
        builder.receive("m1")             # p1 interval 1
        builder.checkpoint(1)             # s1^1
        builder.receive("m2")             # p1 interval 2
        ccp = builder.build()
        messages = {m[M_ID]: m for m in ccp.messages()}
        assert messages[0][M_SEND_INTERVAL] == 1
        assert messages[0][M_RECEIVE_INTERVAL] == 1
        assert messages[1][M_SEND_INTERVAL] == 2
        assert messages[1][M_RECEIVE_INTERVAL] == 2

    def test_checkpoint_event_belongs_to_the_interval_it_opens(self):
        builder = CCPBuilder(1)
        ccp = builder.build()
        checkpoint_event = ccp.log.history(0)[0]
        # s^0 opens interval 1 (I^1 includes c^0 but not c^1).
        assert ccp.interval_of_event(checkpoint_event) == 1

    def test_interval_of_event_by_id(self, figure1_ccp):
        event = figure1_ccp.log.history(0)[0]
        assert figure1_ccp.interval_of_event(EventId(0, 0)) == figure1_ccp.interval_of_event(event)


class TestCausalPrecedence:
    def test_same_process_order(self, figure1_ccp):
        assert figure1_ccp.causally_precedes(CheckpointId(0, 0), CheckpointId(0, 1))
        assert not figure1_ccp.causally_precedes(CheckpointId(0, 1), CheckpointId(0, 0))

    def test_figure1_message_induced_precedence(self, figure1_ccp):
        # s1^0 -> s2^1 (via m1), the inconsistency the paper points out.
        assert figure1_ccp.causally_precedes(CheckpointId(0, 0), CheckpointId(1, 1))
        # s1^1 -> s3^2 (via m3), the doubling that keeps the pattern RDT.
        assert figure1_ccp.causally_precedes(CheckpointId(0, 1), CheckpointId(2, 2))
        # s2^1 and s3^1 are not related.
        assert figure1_ccp.consistent(CheckpointId(1, 1), CheckpointId(2, 1))

    def test_volatile_precedes_nothing(self, figure1_ccp):
        volatile = figure1_ccp.volatile_id(0)
        for pid in figure1_ccp.processes:
            for cid in figure1_ccp.general_ids(pid):
                assert not figure1_ccp.causally_precedes(volatile, cid)

    def test_every_checkpoint_precedes_own_volatile(self, figure1_ccp):
        for pid in figure1_ccp.processes:
            volatile = figure1_ccp.volatile_id(pid)
            for cid in figure1_ccp.stable_ids(pid):
                assert figure1_ccp.causally_precedes(cid, volatile)

    def test_no_self_precedence(self, figure1_ccp):
        for pid in figure1_ccp.processes:
            for cid in figure1_ccp.general_ids(pid):
                assert not figure1_ccp.causally_precedes(cid, cid)


class TestDependencyVectors:
    def test_equation_two_ground_truth_vs_causal_relation(self, figure1_ccp):
        """Equation (2): c_a^alpha -> c_b^beta iff alpha < DV(c_b^beta)[a]."""
        ccp = figure1_ccp
        all_ids = [cid for pid in ccp.processes for cid in ccp.general_ids(pid)]
        for source in all_ids:
            if ccp.is_volatile(source):
                continue
            for target in all_ids:
                if source == target:
                    continue
                dv = ccp.ground_truth_dv(target)
                assert ccp.causally_precedes(source, target) == (source.index < dv[source.pid])

    def test_recorded_dv_preferred_over_ground_truth(self, figure1_ccp):
        cid = CheckpointId(1, 1)
        assert figure1_ccp.dv(cid) == figure1_ccp.checkpoint(cid).dependency_vector

    def test_own_entry_equals_index(self, figure1_ccp):
        for pid in figure1_ccp.processes:
            for cid in figure1_ccp.general_ids(pid):
                assert figure1_ccp.ground_truth_dv(cid)[pid] == cid.index
