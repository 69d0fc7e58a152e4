"""Unit tests for the event log substrate."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.events import (
    CHECKPOINT,
    E_KIND,
    E_MESSAGE_ID,
    E_PID,
    E_SEQ,
    M_ID,
    M_RECEIVE_SEQ,
    M_RECEIVER,
    M_SEND_INTERVAL,
    M_SEND_SEQ,
    M_SENDER,
    RECEIVE,
    SEND,
    Event,
    EventId,
    EventKind,
    EventLog,
    Message,
)
from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP
from repro.simulation.trace import TraceRecorder
from repro.storage.records import StoredCheckpoint


class TestEvent:
    def test_send_requires_message_id(self):
        with pytest.raises(ValueError):
            Event(pid=0, seq=0, kind=EventKind.SEND)

    def test_receive_requires_message_id(self):
        with pytest.raises(ValueError):
            Event(pid=0, seq=0, kind=EventKind.RECEIVE)

    def test_checkpoint_requires_index(self):
        with pytest.raises(ValueError):
            Event(pid=0, seq=0, kind=EventKind.CHECKPOINT)

    def test_event_id_roundtrip(self):
        event = Event(pid=2, seq=5, kind=EventKind.INTERNAL)
        assert event.event_id == EventId(2, 5)

    def test_is_checkpoint(self):
        event = Event(pid=0, seq=0, kind=EventKind.CHECKPOINT, checkpoint_index=0)
        assert event.is_checkpoint()
        assert not Event(pid=0, seq=1, kind=EventKind.INTERNAL).is_checkpoint()

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = Event(pid=1, seq=2, kind=EventKind.SEND, message_id=3, time=4.0)
        assert Event(1, 2, EventKind.SEND, 3, None, 4.0) == by_keyword
        assert by_keyword.checkpoint_index is None and by_keyword.forced is False


RECORDS = [
    Event(pid=1, seq=2, kind=EventKind.SEND, message_id=3, time=4.0),
    Event(pid=0, seq=0, kind=EventKind.CHECKPOINT, checkpoint_index=0, forced=True),
    Message(message_id=3, sender=1, receiver=0, send_seq=2, send_interval=1),
    Message(3, 1, 0, 2, 1, receive_seq=5, receive_interval=2),
    CheckpointId(1, 2),
    EventId(3, 4),
    StoredCheckpoint(1, 2, (2, 0, 1), forced=True, time=3.5),
]
IDENTITIES = (CheckpointId, EventId, StoredCheckpoint)


class TestRecordsAreValues:
    """The records are immutable, dict-less, hashable and picklable tuples."""

    @pytest.mark.parametrize("record", RECORDS)
    def test_immutable_and_without_instance_dict(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 9)
        with pytest.raises(AttributeError):
            record.extra = 9
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", RECORDS)
    def test_equality_and_hash_by_value(self, record):
        twin = type(record)(*record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        assert record._replace(**{record._fields[1]: 7}) != record

    @pytest.mark.parametrize("record", RECORDS)
    def test_pickle_round_trip(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol))
            assert type(clone) is type(record) and clone == record

    def test_message_accessors(self):
        pending, delivered = RECORDS[2], RECORDS[3]
        assert pending.send_event == EventId(1, 2)
        assert pending.receive_event is None and not pending.delivered
        assert (pending.receive_seq, pending.receive_interval) == (-1, -1)
        assert delivered.receive_event == EventId(0, 5) and delivered.delivered

    @pytest.mark.parametrize("record_type", IDENTITIES)
    def test_built_hashed_and_compared_in_c(self, record_type):
        """No Python-level ``__init__``/``__eq__``/``__hash__``: a dataclass fails this."""
        assert issubclass(record_type, tuple) and record_type.__init__ is tuple.__init__
        for method in ("__eq__", "__ne__", "__lt__", "__hash__"):
            assert getattr(record_type, method) is getattr(tuple, method), method

    @pytest.mark.parametrize("pid, index", [(0, 0), (3, 7), (15, 1024)])
    def test_hash_is_the_hash_of_the_plain_tuple(self, pid, index):
        """Set iteration order, and so every sorted and written output, rests on this."""
        assert hash(CheckpointId(pid, index)) == hash((pid, index))
        assert hash(EventId(pid, index)) == hash((pid, index))

    def test_str_forms(self):
        assert str(CheckpointId(1, 2)) == "c1^2"
        assert str(EventId(1, 2)) == "e1^2"
        assert str(StoredCheckpoint(1, 2, (0, 0))) == "s1^2"

    def test_fields_and_defaults(self):
        stored = StoredCheckpoint(1, 2, (0, 0))
        assert StoredCheckpoint._fields == ("pid", "index", "dependency_vector", "forced", "time")
        assert (stored.forced, stored.time) == (False, 0.0)
        assert CheckpointId._fields == ("pid", "index") and EventId._fields == ("pid", "seq")

    def test_ordering_is_by_pid_then_index(self):
        ids = [CheckpointId(1, 0), CheckpointId(0, 5), CheckpointId(0, 2), CheckpointId(1, -1)]
        assert sorted(ids) == [
            CheckpointId(0, 2), CheckpointId(0, 5), CheckpointId(1, -1), CheckpointId(1, 0)
        ]
        assert EventId(0, 9) < EventId(1, 0) < EventId(1, 1)

    def test_equals_a_plain_tuple_of_the_same_values(self):
        """The one deliberate change from the dataclass: tuple equality."""
        assert CheckpointId(1, 2) == (1, 2) == EventId(1, 2)


class TestEventLogConstruction:
    def test_requires_at_least_one_process(self):
        with pytest.raises(ValueError):
            EventLog(0)

    def test_add_internal_assigns_sequence_numbers(self):
        log = EventLog(2)
        first = log.add_internal(0)
        second = log.add_internal(0)
        assert (first[E_SEQ], second[E_SEQ]) == (0, 1)

    def test_add_checkpoint_enforces_contiguous_indices(self):
        log = EventLog(1)
        log.add_checkpoint(0, 0)
        with pytest.raises(ValueError):
            log.add_checkpoint(0, 2)

    def test_checkpoint_indices_start_at_zero(self):
        log = EventLog(1)
        with pytest.raises(ValueError):
            log.add_checkpoint(0, 1)

    def test_send_to_unknown_process_rejected(self):
        log = EventLog(2)
        with pytest.raises(ValueError):
            log.add_send(0, 5)

    def test_send_and_receive_round_trip(self):
        log = EventLog(2)
        _, message = log.add_send(0, 1)
        assert message[M_RECEIVE_SEQ] < 0
        log.add_receive(message[M_ID])
        assert log.message(message[M_ID])[M_RECEIVE_SEQ] >= 0

    def test_receive_of_unknown_message_rejected(self):
        log = EventLog(2)
        with pytest.raises(ValueError):
            log.add_receive(42)

    def test_double_receive_rejected(self):
        log = EventLog(2)
        _, message = log.add_send(0, 1)
        log.add_receive(message[M_ID])
        with pytest.raises(ValueError):
            log.add_receive(message[M_ID])

    def test_duplicate_message_id_rejected(self):
        log = EventLog(2)
        log.add_send(0, 1, message_id=7)
        with pytest.raises(ValueError):
            log.add_send(1, 0, message_id=7)

    @pytest.mark.parametrize(
        "record",
        [
            lambda log: log.add_internal(-1),
            lambda log: log.add_checkpoint(-1, 1),
            lambda log: log.add_send(-1, 0),
            lambda log: log.add_send(0, -1),
        ],
    )
    def test_negative_pid_rejected(self, record):
        log = EventLog(2)
        for pid in log.processes:
            log.add_checkpoint(pid, 0)
        with pytest.raises(ValueError):
            record(log)
        assert log.total_events() == 2 and log.messages() == []

    def test_messages_are_stamped_with_their_intervals(self):
        log = EventLog(2)
        _, early = log.add_send(0, 1)  # before any checkpoint: interval 0
        log.add_checkpoint(0, 0)
        log.add_checkpoint(1, 0)
        log.add_checkpoint(1, 1)
        _, late = log.add_send(0, 1)
        log.add_receive(late[M_ID])
        assert (early[M_SEND_SEQ], early[M_SEND_INTERVAL]) == (0, 0)
        assert log.message(late[M_ID]) == Message(
            late[M_ID], 0, 1, send_seq=2, send_interval=1, receive_seq=2, receive_interval=2
        )

    def test_explicit_message_ids_do_not_collide_with_auto_ids(self):
        log = EventLog(2)
        log.add_send(0, 1, message_id=3)
        _, auto = log.add_send(0, 1)
        assert auto[M_ID] == 4


class TestEventLogQueries:
    def _sample_log(self) -> EventLog:
        log = EventLog(3)
        for pid in range(3):
            log.add_checkpoint(pid, 0)
        _, m = log.add_send(0, 1)
        log.add_receive(m[M_ID])
        log.add_checkpoint(1, 1)
        log.add_send(2, 0)  # never received
        return log

    def test_total_events(self):
        log = self._sample_log()
        assert log.total_events() == 7

    def test_delivered_messages_excludes_in_transit(self):
        log = self._sample_log()
        assert len(log.messages()) == 2
        assert len(log.delivered_messages()) == 1

    def test_history_last_checkpoint_index(self):
        log = self._sample_log()
        assert log.history(1).last_checkpoint_index() == 1
        assert log.history(2).last_checkpoint_index() == 0

    def test_event_lookup(self):
        log = self._sample_log()
        event = log.event(EventId(1, 1))
        assert event[E_KIND] == RECEIVE


class TestEventLogPrefix:
    def test_prefix_drops_receives_of_dropped_sends_gracefully(self):
        log = EventLog(2)
        log.add_checkpoint(0, 0)
        log.add_checkpoint(1, 0)
        _, m = log.add_send(0, 1)
        log.add_receive(m[M_ID])
        # Keep the receive but drop the send: the receive is replaced by an
        # internal placeholder so per-process event counts are preserved.
        sub = log.prefix([1, 2])
        assert sub.total_events() == 3
        assert len(sub.delivered_messages()) == 0

    def test_prefix_preserves_consistent_cut(self):
        log = EventLog(2)
        log.add_checkpoint(0, 0)
        log.add_checkpoint(1, 0)
        _, m = log.add_send(0, 1)
        log.add_receive(m[M_ID])
        log.add_checkpoint(1, 1)
        sub = log.prefix([2, 3])
        assert sub.total_events() == 5
        assert len(sub.delivered_messages()) == 1
        assert sub.history(1).last_checkpoint_index() == 1

    def test_prefix_validates_lengths(self):
        log = EventLog(2)
        with pytest.raises(ValueError):
            log.prefix([1])
        with pytest.raises(ValueError):
            log.prefix([5, 0])


def _readd_prefix(log, lengths):
    """Reference for ``prefix``: re-add every surviving event.

    The first ``lengths[pid]`` events of each process are replayed through
    ``add_*`` into a fresh log, in an interleaving where a receive waits for
    its send; a receive whose send lies outside the prefix becomes an
    INTERNAL placeholder.  This is what ``prefix`` did before it sliced the
    histories.
    """
    sub = EventLog(log.num_processes)
    kept_sends = {
        event[E_MESSAGE_ID]
        for pid in log.processes
        for event in log.history(pid).events[: lengths[pid]]
        if event[E_KIND] == SEND
    }
    cursors = [0] * log.num_processes
    remaining = sum(lengths)
    while remaining:
        for pid in log.processes:
            while cursors[pid] < lengths[pid]:
                _, _, kind, message_id, index, time, forced = log.history(pid)[cursors[pid]]
                if kind == CHECKPOINT:
                    sub.add_checkpoint(pid, index, time=time, forced=forced)
                elif kind == SEND:
                    receiver = log.message(message_id)[M_RECEIVER]
                    sub.add_send(pid, receiver, message_id=message_id, time=time)
                elif kind == RECEIVE and message_id in kept_sends:
                    if not sub.has_message(message_id):
                        break  # its send is replayed in a later round
                    sub.add_receive(message_id, time=time)
                else:
                    sub.add_internal(pid, time=time)
                cursors[pid] += 1
                remaining -= 1
    return sub


def _assert_same_log(actual, reference):
    for pid in reference.processes:
        assert actual.history(pid).events == reference.history(pid).events
    # Same records; the reference registers its sends in another order.
    assert sorted(actual.messages()) == sorted(reference.messages())
    # The construction state carries over too: the next automatic message id
    # and the next checkpoint index each process may record.
    assert actual.add_send(0, 1)[1][M_ID] == reference.add_send(0, 1)[1][M_ID]
    for pid in reference.processes:
        expected = reference.history(pid).last_checkpoint_index() + 1
        with pytest.raises(ValueError, match=f"expected checkpoint index {expected}"):
            actual.add_checkpoint(pid, expected + 1)
        actual.add_checkpoint(pid, expected)


def _random_log(seed):
    from repro.scenarios.random_patterns import random_ccp_script

    num_processes = 2 + seed % 4
    script = random_ccp_script(
        seed,
        num_processes=num_processes,
        num_messages=15 + seed % 25,
        checkpoint_rate=0.25,
        undelivered_fraction=0.2,
    )
    log = EventLog(num_processes)
    taken = [0] * num_processes
    for time, op in enumerate(script):
        if op[0] == "send":
            log.add_send(op[1], op[2], message_id=op[3], time=float(time))
        elif op[0] == "receive":
            log.add_receive(op[1], time=float(time))
        else:
            log.add_checkpoint(op[1], taken[op[1]], time=float(time), forced=time % 2 == 0)
            taken[op[1]] += 1
    return log


def _close_under_sends(log, lengths):
    """Shrink ``lengths`` to the largest consistent cut below it."""
    lengths = list(lengths)
    changed = True
    while changed:
        changed = False
        for _, sender, receiver, send_seq, _, receive_seq, _ in log.delivered_messages():
            if receive_seq < lengths[receiver] and send_seq >= lengths[sender]:
                lengths[receiver] = receive_seq
                changed = True
    return lengths


def _kinds(log, lengths=None):
    return [
        [event[E_KIND] for event in log.history(pid).events[: lengths and lengths[pid]]]
        for pid in log.processes
    ]


class TestWindowsMatchReaddReference:
    """Slicing ``prefix`` equals re-adding the surviving events one by one."""

    SEEDS = range(40)

    def _cuts(self, log, seed):
        import random

        rng = random.Random(seed)
        for _ in range(6):
            lengths = [rng.randint(0, len(log.history(pid))) for pid in log.processes]
            yield lengths
            yield _close_under_sends(log, lengths)

    def test_random_cuts(self):
        seen = {"consistent": 0, "undelivered": 0, "placeholder": 0}
        for seed in self.SEEDS:
            log = _random_log(seed)
            for lengths in self._cuts(log, seed):
                sub = log.prefix(lengths)
                reference = _readd_prefix(log, lengths)
                placeholder = _kinds(sub) != _kinds(log, lengths)
                seen["placeholder"] += placeholder
                seen["consistent"] += not placeholder
                seen["undelivered"] += any(
                    log.message(m[M_ID])[M_RECEIVE_SEQ] >= 0 and m[M_RECEIVE_SEQ] < 0
                    for m in sub.messages()
                )
                _assert_same_log(sub, reference)
        # Every situation the fix-up distinguishes occurs in the corpus.
        assert all(count >= 20 for count in seen.values()), seen

    def test_prefix_leaves_the_original_untouched(self):
        log = _random_log(5)
        events = [list(log.history(pid).events) for pid in log.processes]
        messages = log.messages()
        log.prefix([len(log.history(pid)) // 2 for pid in log.processes])
        assert [log.history(pid).events for pid in log.processes] == events
        assert log.messages() == messages

    def test_prefix_shares_the_kept_events(self):
        log = _random_log(6)
        lengths = _close_under_sends(
            log, [len(log.history(pid)) // 2 for pid in log.processes]
        )
        sub = log.prefix(lengths)
        for pid in log.processes:
            kept = sub.history(pid).events
            assert all(a is b for a, b in zip(kept, log.history(pid).events))


def _assert_messages_describe_the_events(log):
    """Every ``Message`` agrees with the SEND/RECEIVE events it stands for.

    The stamped intervals are checked against :meth:`CCP.interval_of_event`
    and against a count of the checkpoint events before the position.
    """
    # interval_of_event reads the log alone: the (empty) view is never asked.
    ccp = CCP(log, analysis_provider=TraceRecorder(log.num_processes).knowledge_view())

    def interval(event):
        before = log.history(event[E_PID]).events[: event[E_SEQ]]
        counted = sum(e[E_KIND] == CHECKPOINT for e in before)
        event_id = EventId(event[E_PID], event[E_SEQ])
        assert ccp.interval_of_event(event) == ccp.interval_of_event(event_id)
        assert ccp.interval_of_event(event) == counted
        return ccp.interval_of_event(event)

    for message in log.messages():
        message_id, sender, receiver, send_seq, send_interval, receive_seq, receive_interval = (
            message
        )
        send = log.event(EventId(sender, send_seq))
        assert (send[E_KIND], send[E_PID], send[E_MESSAGE_ID]) == (SEND, sender, message_id)
        assert send_interval == interval(send)
        if receive_seq >= 0:
            receive = log.event(EventId(receiver, receive_seq))
            assert (receive[E_KIND], receive[E_PID], receive[E_MESSAGE_ID]) == (
                RECEIVE, receiver, message_id
            )
            assert receive_interval == interval(receive)
        else:
            assert (receive_seq, receive_interval) == (-1, -1)
    # And the other way round: no SEND or RECEIVE event without its record.
    for event in log.events():
        at = (event[E_PID], event[E_SEQ])
        if event[E_KIND] == SEND:
            message = log.message(event[E_MESSAGE_ID])
            assert (message[M_SENDER], message[M_SEND_SEQ]) == at
        elif event[E_KIND] == RECEIVE:
            message = log.message(event[E_MESSAGE_ID])
            assert (message[M_RECEIVER], message[M_RECEIVE_SEQ]) == at


class TestMessagesDescribeTheEvents:
    """The one record per message stays true to the events through every window."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_after_prefix_and_late_receives(self, seed, data):
        log = _random_log(seed)
        _assert_messages_describe_the_events(log)
        lengths = [
            data.draw(st.integers(0, len(log.history(pid))), label=f"length[{pid}]")
            for pid in log.processes
        ]
        rng = data.draw(st.randoms(use_true_random=False))
        window = log.prefix(lengths)
        _assert_messages_describe_the_events(window)
        # Recording goes on in a cut log: stamps count the kept checkpoints.
        for message in window.messages():
            if message[M_RECEIVE_SEQ] < 0 and rng.random() < 0.7:
                window.add_receive(message[M_ID])
        window.add_checkpoint(0, len(window.history(0).checkpoint_events()))
        window.add_receive(window.add_send(0, 1)[1][M_ID])
        _assert_messages_describe_the_events(window)
