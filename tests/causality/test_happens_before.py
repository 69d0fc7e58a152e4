"""Tests for the happened-before oracle (Definition 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.events import EventId, EventKind, EventLog
from repro.causality.happens_before import CausalOrder


def _two_process_log() -> EventLog:
    log = EventLog(2)
    log.add_checkpoint(0, 0)
    log.add_checkpoint(1, 0)
    _, m1 = log.add_send(0, 1)
    log.add_receive(m1.message_id)
    log.add_checkpoint(1, 1)
    _, m2 = log.add_send(1, 0)
    log.add_receive(m2.message_id)
    return log


class TestCausalOrder:
    def test_program_order(self):
        order = CausalOrder(_two_process_log())
        assert order.precedes(EventId(0, 0), EventId(0, 1))
        assert not order.precedes(EventId(0, 1), EventId(0, 0))

    def test_message_order(self):
        order = CausalOrder(_two_process_log())
        # send of m1 is event (0,1); receive is (1,1)
        assert order.precedes(EventId(0, 1), EventId(1, 1))

    def test_transitivity_through_messages(self):
        order = CausalOrder(_two_process_log())
        # p0's initial checkpoint precedes p1's second checkpoint via m1
        assert order.precedes(EventId(0, 0), EventId(1, 2))
        # and p1's send of m2 precedes p0's receive of it
        assert order.precedes(EventId(1, 3), EventId(0, 2))

    def test_no_self_precedence(self):
        order = CausalOrder(_two_process_log())
        event = EventId(0, 0)
        assert not order.precedes(event, event)

    def test_concurrency(self):
        order = CausalOrder(_two_process_log())
        # The two initial checkpoints are concurrent: neither precedes the other.
        assert not order.precedes(EventId(0, 0), EventId(1, 0))
        assert not order.precedes(EventId(1, 0), EventId(0, 0))

    def test_causal_past(self):
        log = _two_process_log()
        order = CausalOrder(log)
        past = {e.event_id for e in log.events() if order.precedes(e, EventId(1, 2))}
        assert past == {EventId(0, 0), EventId(0, 1), EventId(1, 0), EventId(1, 1)}

    def test_latest_checkpoint_known(self):
        log = _two_process_log()
        order = CausalOrder(log)

        def latest_known(event_id, pid):
            return max(
                event.checkpoint_index
                for event in log.history(pid)
                if event.kind is EventKind.CHECKPOINT
                and (event.event_id == event_id or order.precedes(event, event_id))
            )

        # At p1's checkpoint 1 (event (1,2)), the latest checkpoint of p0 known is 0.
        assert latest_known(EventId(1, 2), 0) == 0
        # At p0's receive of m2, the latest known checkpoint of p1 is 1.
        assert latest_known(EventId(0, 2), 1) == 1

    def test_unreplayable_log_rejected(self):
        log = EventLog(2)
        # Hand-craft a receive whose send is not replayable by erasing the
        # sender's history after the fact.
        _, m = log.add_send(0, 1)
        log.add_receive(m.message_id)
        log.history(0).events.clear()
        with pytest.raises(ValueError):
            CausalOrder(log)

    def test_timestamps_match_vector_clock_semantics(self):
        log = _two_process_log()
        order = CausalOrder(log)
        for first in log.events():
            for second in log.events():
                if first.event_id == second.event_id:
                    continue
                earlier, later = order.timestamp(first), order.timestamp(second)
                expected = earlier != later and all(map(int.__le__, earlier, later))
                assert order.precedes(first, second) == expected

    def test_timestamps_are_tuples(self):
        order = CausalOrder(_two_process_log())
        # p1's second checkpoint follows the receive of m1, sent after s_0^0.
        assert order.timestamp(EventId(1, 2)) == (2, 3)


class TestTimestamps:
    def test_one_entry_per_process(self):
        log = _two_process_log()
        order = CausalOrder(log)
        assert all(len(order.timestamp(event)) == 2 for event in log.events())

    def test_first_event_ticks_only_its_own_entry(self):
        order = CausalOrder(_two_process_log())
        assert order.timestamp(EventId(0, 0)) == (1, 0)
        assert order.timestamp(EventId(1, 0)) == (0, 1)

    def test_receive_merges_the_send_stamp_then_ticks(self):
        order = CausalOrder(_two_process_log())
        # p1 had (0, 1) when m1 arrived carrying p0's send stamp (2, 0).
        assert order.timestamp(EventId(0, 1)) == (2, 0)
        assert order.timestamp(EventId(1, 1)) == (2, 2)

    def test_event_and_event_id_give_the_same_stamp(self):
        log = _two_process_log()
        order = CausalOrder(log)
        for event in log.events():
            assert order.timestamp(event) == order.timestamp(event.event_id)

    def test_events_appended_later_are_not_timestamped(self):
        log = _two_process_log()
        order = CausalOrder(log)
        late = log.add_internal(0)
        with pytest.raises(KeyError):
            order.timestamp(late)


@st.composite
def event_logs(draw):
    """A random replayable log of up to four processes."""
    n = draw(st.integers(1, 4))
    log = EventLog(n)
    indices = [0] * n
    in_flight = []
    for kind, a, b in draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 7)),
                 min_size=1, max_size=20)
    ):
        if kind == 0:
            log.add_internal(a % n)
        elif kind == 1:
            log.add_checkpoint(a % n, indices[a % n])
            indices[a % n] += 1
        elif kind == 2:
            in_flight.append(log.add_send(a % n, b % n)[1].message_id)
        elif in_flight:
            log.add_receive(in_flight.pop(a % len(in_flight)))
    return log


def _reachability(log):
    """Definition 1 by brute force: program order, message edges, closure."""
    events = [event.event_id for event in log.events()]
    before = {e: set() for e in events}
    for e in events:
        if e.seq:
            before[e].add(EventId(e.pid, e.seq - 1))
    for message in log.messages():
        if message.receive_seq >= 0:
            before[EventId(message.receiver, message.receive_seq)].add(
                EventId(message.sender, message.send_seq)
            )
    past = {}
    for event in log.causal_replay():
        e = event.event_id
        past[e] = set(before[e])
        for direct in before[e]:
            past[e] |= past[direct]
    return past


class TestOrderProperties:
    @settings(max_examples=60, deadline=None)
    @given(event_logs())
    def test_precedes_is_definition_1(self, log):
        order = CausalOrder(log)
        past = _reachability(log)
        for first in past:
            for second in past:
                assert order.precedes(first, second) == (first in past[second])

    @settings(max_examples=60, deadline=None)
    @given(event_logs())
    def test_no_event_precedes_itself(self, log):
        order = CausalOrder(log)
        assert not any(order.precedes(e, e) for e in log.events())

    @settings(max_examples=60, deadline=None)
    @given(event_logs())
    def test_antisymmetry(self, log):
        order = CausalOrder(log)
        events = list(log.events())
        for a in events:
            for b in events:
                assert not (order.precedes(a, b) and order.precedes(b, a))

    @settings(max_examples=40, deadline=None)
    @given(event_logs())
    def test_transitivity(self, log):
        order = CausalOrder(log)
        events = list(log.events())
        for a in events:
            for b in events:
                if not order.precedes(a, b):
                    continue
                for c in events:
                    if order.precedes(b, c):
                        assert order.precedes(a, c)

    @settings(max_examples=60, deadline=None)
    @given(event_logs())
    def test_receive_stamp_is_least_upper_bound(self, log):
        order = CausalOrder(log)
        for message in log.messages():
            if message.receive_seq < 0:
                continue
            receive = EventId(message.receiver, message.receive_seq)
            sent = order.timestamp(EventId(message.sender, message.send_seq))
            local = (
                order.timestamp(EventId(receive.pid, receive.seq - 1))
                if receive.seq
                else (0,) * log.num_processes
            )
            merged = list(map(max, local, sent))
            merged[receive.pid] += 1
            assert order.timestamp(receive) == tuple(merged)
