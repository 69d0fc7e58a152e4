"""RDT-LGC on the middleware node: Algorithms 2-4 and the node's refusals.

Every process here is what ``build_node`` gives both backends: a
:class:`SimulationNode` with the ``rdt-lgc`` collector and a protocol, on the
hand-driven transport of the Figure 4 reproduction, so each message is
delivered exactly when the test says.
"""

import pytest

from repro.scenarios.figures import HandDrivenTransport
from repro.simulation.node import build_node
from repro.transport.base import AppMessage


class _Unrecorded:
    """A trace port that keeps only the kind of each call (no recovery
    session reaches a recorder here)."""

    def __init__(self):
        self.calls = []

    def record_send(self, sender, receiver, message_id, time):
        self.calls.append("send")

    def record_receive(self, message_id, time):
        self.calls.append("receive")

    def record_duplicate_receive(self, message_id, time):
        self.calls.append("duplicate")

    def record_checkpoint(self, pid, index, dependency_vector, *, forced, time):
        self.calls.append("checkpoint")


def _nodes(num_processes, protocol="uncoordinated", *, start=True, trace=None):
    """Nodes on one hand-driven transport, sharing one trace port (``trace``,
    or a fresh ``_Unrecorded``)."""
    transport = HandDrivenTransport()
    port = _Unrecorded() if trace is None else trace
    nodes = [
        build_node(pid, num_processes, protocol=protocol, collector="rdt-lgc",
                   collector_options={}, transport=transport, trace=port)
        for pid in range(num_processes)
    ]
    if start:
        for node in nodes:
            node.start()
    return nodes


def _send(sender, receiver):
    """``sender`` sends to ``receiver``; returns the message, not yet delivered."""
    sender.send_message(receiver.pid)
    return sender.transport.sent[-1]


def _state(node):
    """Everything a refused call must leave as it was."""
    storage = node.storage
    return (storage.retained_indices(), storage.last_index(), node.current_dv,
            node.collector.uc_view(), storage.total_eliminated())


@pytest.fixture
def pinned_pair():
    """p1 knows p0's ``s^0`` and ends up retaining its checkpoints {0, 3}.

    p1 takes ``s^0`` (stored DV (0, 0)), learns about p0's ``s^0``, and takes
    three more checkpoints; ``UC[0]`` keeps ``s^0`` and ``UC[1]`` the last
    checkpoint, and the ones between are collected.
    """
    p0, p1 = _nodes(2)
    p1.deliver(_send(p0, p1))
    for _ in range(3):
        p1.take_checkpoint()
    assert p1.storage.retained_indices() == [0, 3]
    return p0, p1


class TestNormalExecution:
    """Algorithm 2."""

    def test_initial_state_and_pid_validation(self):
        node = _nodes(3, start=False)[0]
        assert node.current_dv == (0, 0, 0)
        assert node.collector.uc_view() == (None, None, None)
        assert node.storage.retained_indices() == []
        with pytest.raises(ValueError):
            build_node(3, 3, protocol="uncoordinated", collector="rdt-lgc",
                       collector_options={}, transport=HandDrivenTransport(),
                       trace=_Unrecorded())

    def test_the_initial_checkpoint_is_basic(self):
        node = _nodes(3, "fdas")[0]
        assert node.storage.retained_indices() == [0]
        assert node.current_dv == (1, 0, 0)
        assert (node.basic_checkpoints, node.forced_checkpoints) == (1, 0)

    def test_a_checkpoint_stores_the_vector_and_its_index_is_the_interval(self):
        node, _ = _nodes(2, start=False)
        assert node.take_checkpoint() == 0
        assert node.storage.get(0).dependency_vector == (0, 0)
        assert node.current_dv == (1, 0)
        assert node.collector.uc_view() == (0, None)
        assert [node.take_checkpoint() for _ in range(2)] == [1, 2]

    def test_the_checkpoint_metadata_reaches_storage(self):
        node, _ = _nodes(2)
        assert node.take_checkpoint(forced=True) == 1
        record = node.storage.get(1)
        assert (record.dependency_vector, record.forced) == ((1, 0), True)
        assert node.forced_checkpoints == 1

    def test_an_unreferenced_predecessor_is_collected(self):
        node, _ = _nodes(2)
        eliminated = []
        node.collector.attach_elimination_listener(eliminated.append)
        node.take_checkpoint()
        # s^0 was only protected by UC[0]; taking s^1 releases and collects it.
        assert node.storage.retained_indices() == [1]
        assert eliminated == [0]

    def test_a_receive_relinks_uc_to_the_last_stable_checkpoint(self):
        sender, receiver = _nodes(2)
        message = _send(sender, receiver)
        assert message.piggyback == (1, 0)
        receiver.deliver(message)
        assert receiver.current_dv == (1, 1)
        assert receiver.collector.uc_view() == (0, 0)

    def test_a_receive_without_new_information_changes_nothing(self):
        sender, receiver = _nodes(2)
        message = _send(sender, receiver)
        receiver.deliver(message)
        before = _state(receiver)
        receiver.deliver_duplicate(message)
        assert _state(receiver) == before

    @pytest.mark.parametrize("protocol", ["uncoordinated", "fdas"])
    def test_a_remotely_pinned_checkpoint_survives(self, protocol):
        sender, receiver = _nodes(2, protocol)
        eliminated = []
        receiver.collector.attach_elimination_listener(eliminated.append)
        receiver.deliver(_send(sender, receiver))  # UC[0] -> s^0
        receiver.take_checkpoint()  # UC[1] -> s^1; s^0 still pinned
        assert receiver.storage.retained_indices() == [0, 1]
        receiver.take_checkpoint()  # s^1 unpinned -> collected
        assert receiver.storage.retained_indices() == [0, 2]
        assert eliminated == [1]

    @pytest.mark.parametrize("protocol", ["uncoordinated", "fdas"])
    def test_the_per_process_bound_is_n(self, protocol):
        """Theorem-5 discussion: at most n retained checkpoints per process."""
        n = 5
        nodes = _nodes(n, protocol)
        # The worst-case schedule: in round k every process checkpoints, then
        # process k sends fresh information about itself to every other one.
        for sender in nodes:
            for node in nodes:
                node.take_checkpoint()
            for receiver in nodes:
                if receiver is not sender:
                    receiver.deliver(_send(sender, receiver))
        for node in nodes:
            node.take_checkpoint()
            assert node.storage.retained_count() <= n
            assert node.storage.max_retained() <= n + 1


class TestRollbackWithGlobalInformation:
    """Algorithm 3 with the recovery manager's last-interval vector ``LI``."""

    def test_a_rollback_to_the_last_checkpoint_rebuilds_uc(self, pinned_pair):
        _, p1 = pinned_pair
        assert p1.apply_rollback(3, (1, 4)) == []
        assert p1.storage.last_index() == 3
        assert p1.current_dv == (1, 4)
        assert p1.storage.retained_indices() == [0, 3]
        assert p1.collector.uc_view() == (0, 3)

    def test_a_rollback_to_an_earlier_checkpoint_discards_the_later_ones(self, pinned_pair):
        _, p1 = pinned_pair
        p1.apply_rollback(0, (1, 1))
        assert p1.storage.last_index() == 0
        assert p1.storage.retained_indices() == [0]
        assert p1.current_dv == (0, 1)
        # The rollback checkpoint is protected by the process's own entry.
        assert p1.collector.uc_view() == (None, 0)

    def test_a_checkpoint_nobody_denies_is_collected(self, pinned_pair):
        """``LI[f] <= 0``: no process denies anything, so only the rollback
        checkpoint itself stays protected."""
        _, p1 = pinned_pair
        assert p1.apply_rollback(3, (0, 4)) == [0]
        assert p1.storage.retained_indices() == [3]
        assert p1.collector.uc_view() == (None, 3)

    def test_the_next_checkpoint_reuses_the_index_and_collects_the_rollback_one(
        self, pinned_pair
    ):
        _, p1 = pinned_pair
        p1.apply_rollback(0, (1, 1))
        # The rollback erased the dependency that pinned s^0, so it is
        # obsolete and goes when the next checkpoint releases UC[1].
        assert p1.take_checkpoint() == 1
        assert p1.storage.retained_indices() == [1]


class TestRollbackWithCausalKnowledgeOnly:
    """Algorithm 3 with ``LI`` replaced by the recreated ``DV``."""

    def test_the_recreated_vector_is_the_reference(self, pinned_pair):
        _, p1 = pinned_pair
        assert p1.apply_rollback(3, None) == []
        assert p1.current_dv == (1, 4)
        assert p1.storage.retained_indices() == [0, 3]

    def test_it_equals_the_li_variant_when_knowledge_is_current(self):
        states = []
        for last_interval_vector in ((1, 4), None):
            p0, p1 = _nodes(2)
            p1.deliver(_send(p0, p1))
            for _ in range(3):
                p1.take_checkpoint()
            collected = p1.apply_rollback(3, last_interval_vector)
            states.append((collected, _state(p1)))
        assert states[0] == states[1]


class TestPeerRollback:
    def test_no_release_while_the_knowledge_is_still_valid(self, pinned_pair):
        _, p1 = pinned_pair
        assert p1.apply_peer_rollback((1, 4)) == []
        assert p1.storage.retained_indices() == [0, 3]

    def test_a_peer_restarting_past_our_knowledge_releases_its_entry(self, pinned_pair):
        _, p1 = pinned_pair
        assert p1.apply_peer_rollback((5, 4)) == [0]
        assert p1.storage.retained_indices() == [3]


class TestRecoveryRefusals:
    """A recovery directive the node cannot apply changes nothing."""

    def test_a_rollback_to_a_collected_checkpoint_is_refused(self, pinned_pair):
        _, p1 = pinned_pair
        before = _state(p1)
        with pytest.raises(KeyError, match="not on stable storage"):
            p1.apply_rollback(2, (1, 4))  # s^2 was collected
        assert _state(p1) == before

    @pytest.mark.parametrize("last_interval_vector", [(1,), (1, 2, 3)])
    def test_a_rollback_with_a_wrong_size_vector_is_refused(
        self, pinned_pair, last_interval_vector
    ):
        _, p1 = pinned_pair
        before = _state(p1)
        with pytest.raises(ValueError, match="last-interval vector"):
            p1.apply_rollback(0, last_interval_vector)
        assert _state(p1) == before

    @pytest.mark.parametrize("last_interval_vector", [(5,), (5, 4, 9)])
    def test_a_peer_rollback_with_a_wrong_size_vector_is_refused(
        self, pinned_pair, last_interval_vector
    ):
        _, p1 = pinned_pair
        before = _state(p1)
        with pytest.raises(ValueError, match="last-interval vector"):
            p1.apply_peer_rollback(last_interval_vector)
        assert _state(p1) == before


    def test_a_refused_rollback_leaves_a_crashed_process_down(self, pinned_pair):
        _, p1 = pinned_pair
        p1.crash()
        before = _state(p1)
        with pytest.raises(KeyError):
            p1.apply_rollback(2, (1, 4))
        assert p1.crashed and _state(p1) == before


@pytest.mark.parametrize("path", ["deliver", "deliver_duplicate"])
class TestReceiptRefusals:
    @pytest.mark.parametrize("protocol", ["uncoordinated", "fdas"])
    def test_knowledge_of_an_unreached_own_interval_is_refused(self, path, protocol):
        port = _Unrecorded()
        p0, p1 = _nodes(2, protocol, trace=port)
        _send(p1, p0)  # under FDAS the receipt below would force a checkpoint
        before = _state(p1)
        orphan = AppMessage(99, 0, 1, (1, 5))  # p1 is in interval 1
        with pytest.raises(ValueError, match="its own interval 5"):
            getattr(p1, path)(orphan)
        assert _state(p1) == before
        # Nothing recorded after the send: no forced checkpoint, no receipt.
        assert port.calls == ["checkpoint", "checkpoint", "send"]
        assert p1.forced_checkpoints == 0

    def test_a_wrong_size_piggyback_is_refused(self, path):
        p0, _ = _nodes(2)
        before = _state(p0)
        with pytest.raises(ValueError):
            getattr(p0, path)(AppMessage(99, 1, 0, (1, 2, 3)))
        assert _state(p0) == before


class TestFdasMergedWithRdtLgc:
    """Algorithm 4: the ``fdas`` protocol with the ``rdt-lgc`` collector."""

    def test_the_forced_checkpoint_is_stored_before_the_receipt(self):
        a, b = _nodes(2, "fdas")
        message = _send(a, b)
        _send(b, a)  # b has sent in its current interval
        b.deliver(message)
        assert b.forced_checkpoints == 1
        # Stored before the receive is processed: no new dependency in it.
        assert b.storage.get(1).dependency_vector == (0, 1)
        assert b.current_dv == (1, 2)

    def test_a_receive_without_a_prior_send_does_not_force(self):
        a, b = _nodes(2, "fdas")
        b.deliver(_send(a, b))
        assert b.forced_checkpoints == 0
        assert b.current_dv == (1, 1)

    def test_a_receive_without_new_information_does_not_force(self):
        a, b = _nodes(2, "fdas")
        message = _send(a, b)
        b.deliver(message)
        _send(b, a)
        b.deliver_duplicate(message)
        assert b.forced_checkpoints == 0

    def test_a_checkpoint_clears_the_sent_flag(self):
        a, b = _nodes(2, "fdas")
        _send(b, a)
        b.take_checkpoint()
        assert not b.protocol.sent_in_current_interval
        b.deliver(_send(a, b))
        assert b.forced_checkpoints == 0
        assert (b.basic_checkpoints, b.forced_checkpoints) == (2, 0)

    def test_a_rollback_runs_algorithm_3_and_clears_the_sent_flag(self):
        a, b = _nodes(2, "fdas")
        b.deliver(_send(a, b))
        b.take_checkpoint()
        _send(b, a)
        assert b.apply_rollback(1, (1, 2)) == []
        assert b.storage.retained_indices() == [0, 1]
        assert not b.protocol.sent_in_current_interval

    def test_basic_and_forced_counters(self):
        a, b = _nodes(2, "fdas")
        b.take_checkpoint()
        _send(b, a)
        b.deliver(_send(a, b))
        assert (b.basic_checkpoints, b.forced_checkpoints) == (2, 1)
