"""The recorded history is records the cyclic garbage collector never walks.

CPython's collector untracks an *exact* tuple whose items are all untracked
at the first collection that sees it; a tuple subclass (a ``NamedTuple``) or
a tuple holding an enum member stays tracked for as long as it lives.  The
event log and the recorder therefore store exact tuples of atoms: after a
``gc.collect()`` no stored event or message record, and no stored checkpoint
vector or its key, is tracked — through replays, recovery sessions that leave
a placeholder receive behind, and duplicate receives alike.  Literal
``Event(...)`` / ``Message(...)`` references still compare and hash equal to
the stored records.
"""

import gc
import os

import pytest

from repro.causality.events import (
    CHECKPOINT,
    E_KIND,
    INTERNAL,
    M_RECEIVE_SEQ,
    M_RECEIVER,
    RECEIVE,
    SEND,
    Event,
    EventId,
    EventKind,
    EventLog,
    Message,
)
from repro.ccp.consistency import GlobalCheckpoint
from repro.recovery.rollback_plan import ProcessRollback, RollbackPlan
from repro.scenarios.random_patterns import TraceFeeder
from repro.simulation.trace import TraceRecorder
from repro.traceio.reader import TraceReader

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden_traces")
GOLDEN = sorted(name for name in os.listdir(GOLDEN_DIR) if name.endswith(".trace.jsonl"))


def _tracked_records(recorder: TraceRecorder):
    """Every stored record, vector and vector key the collector still tracks."""
    gc.collect()
    log = recorder.log
    stored = [
        *log.events(),
        *(event for pid in log.processes for event in log.history(pid).checkpoints),
        *log.messages(),
        *recorder._recorded_dvs,
        *recorder._recorded_dvs.values(),
    ]
    return [record for record in stored if gc.is_tracked(record)]


def _stored_types(recorder: TraceRecorder):
    log = recorder.log
    return {type(record) for record in [*log.events(), *log.messages(), *recorder._recorded_dvs]}


def test_the_seven_golden_traces_are_all_here():
    assert len(GOLDEN) == 7


@pytest.mark.parametrize("name", GOLDEN)
def test_a_replayed_golden_trace_leaves_nothing_tracked(name):
    replayed = TraceReader(os.path.join(GOLDEN_DIR, name)).replay(allow_partial=True)
    recorder = replayed.recorder
    assert recorder.log.total_events() and recorder._recorded_dvs
    assert _stored_types(recorder) == {tuple}
    assert _tracked_records(recorder) == []


def _placeholder_recorder():
    """A recovery that discards the send of a kept receive: a placeholder remains."""
    recorder = TraceRecorder(3)
    TraceFeeder(recorder).feed(
        [
            ("send", 0, 1, 0),  # send kept, receive discarded: pending again
            ("receive", 0),
            ("checkpoint", 1),
            ("send", 1, 2, 1),  # send discarded, receive kept: a placeholder
            ("receive", 1),
            ("send", 2, 0, 2),  # untouched
            ("receive", 2),
        ]
    )
    message = recorder.log.message(1)
    placeholder = EventId(message[M_RECEIVER], message[M_RECEIVE_SEQ])
    recorder.ccp()  # the knowledge tracker exists, and the recovery drops it
    recorder.apply_recovery(
        RollbackPlan(
            faulty=(1,),
            recovery_line=GlobalCheckpoint((1, 0, 1)),
            rollbacks=(ProcessRollback(1, 0),),
            last_interval_vector=(1, 1, 1),
        )
    )
    return recorder, placeholder


def test_a_recovery_placeholder_and_a_pending_again_message_are_untracked():
    recorder, placeholder = _placeholder_recorder()
    log = recorder.log
    assert log.event(placeholder)[E_KIND] == INTERNAL
    assert log.message(0)[M_RECEIVE_SEQ] == -1
    assert _stored_types(recorder) == {tuple}
    assert _tracked_records(recorder) == []
    # Recording goes on after the session, and stays untracked.
    recorder.record_receive(0, 100.0)
    recorder.ccp()
    assert _tracked_records(recorder) == []


def test_a_duplicate_receive_is_an_untracked_internal_event():
    recorder = TraceRecorder(2)
    TraceFeeder(recorder).feed([("send", 0, 1, 0), ("receive", 0)])
    recorder.record_duplicate_receive(0, 50.0)
    last = recorder.log.history(1).events[-1]
    assert last[E_KIND] == INTERNAL and type(last) is tuple
    assert _tracked_records(recorder) == []


class TestLiteralReferencesEqualStoredRecords:
    def test_kind_codes_are_the_enum_values(self):
        assert [INTERNAL, SEND, RECEIVE, CHECKPOINT] == [kind.value for kind in EventKind]
        assert all(type(code) is int for code in (INTERNAL, SEND, RECEIVE, CHECKPOINT))

    def test_stored_kinds_are_plain_ints(self):
        log = EventLog(2)
        log.add_checkpoint(0, 0)
        _, message = log.add_send(0, 1)
        log.add_receive(message[0])
        log.add_internal(1)
        assert {type(event[E_KIND]) for event in log.events()} == {int}

    def test_event_and_message_literals_equal_and_hash_as_the_records(self):
        log = EventLog(2)
        log.add_checkpoint(0, 0, time=1.0, forced=True)
        send, _ = log.add_send(0, 1, time=2.0)
        receive = log.add_receive(0, time=3.0)
        internal = log.add_internal(1, time=4.0)
        literals = {
            Event(0, 0, EventKind.CHECKPOINT, checkpoint_index=0, time=1.0, forced=True): (
                log.event(EventId(0, 0))
            ),
            Event(0, 1, EventKind.SEND, message_id=0, time=2.0): send,
            Event(1, 0, EventKind.RECEIVE, message_id=0, time=3.0): receive,
            Event(1, 1, EventKind.INTERNAL, time=4.0): internal,
            Message(0, 0, 1, send_seq=1, send_interval=1, receive_seq=0, receive_interval=0): (
                log.message(0)
            ),
        }
        for literal, stored in literals.items():
            assert literal == stored and hash(literal) == hash(stored)
            assert type(stored) is tuple
        assert set(literals) == {*log.events(), *log.messages()}

    def test_the_field_positions_follow_the_named_fields(self):
        from repro.causality import events

        for position, name in enumerate(Event._fields):
            assert getattr(events, "E_" + name.upper()) == position
        message_names = ["ID", *(name.upper() for name in Message._fields[1:])]
        for position, name in enumerate(message_names):
            assert getattr(events, "M_" + name) == position
