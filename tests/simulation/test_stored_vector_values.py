"""What a recorded checkpoint and a recorded receive keep, object by object.

A stored vector enters a recorder only through
``TraceRecorder.record_checkpoint``, which takes the entries of an all-int
vector from the recorder's value table (one object per distinct value) and
stores any other vector exactly as given: ``True`` and ``1.0`` hash and
compare equal to ``1``, so sharing them with a plain ``1`` would change the
stored entry's type.  A receive keeps the message id object of the send it
matches, not the caller's equal one.
"""

from __future__ import annotations

from repro.causality.events import E_MESSAGE_ID, M_ID, EventLog
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload


class _Count(int):
    """An int subclass: equal to, and hashing as, the plain int of its value."""


def _fresh(value: int) -> int:
    """An int equal to ``value`` that is not the object ``value`` is."""
    return int(str(value))


class TestStoredVectorEntries:
    def test_equal_entries_of_different_vectors_are_one_object(self):
        recorder = TraceRecorder(2)
        recorder.record_checkpoint(0, 0, (_fresh(5000), _fresh(7000)), forced=False, time=1.0)
        recorder.record_checkpoint(1, 0, [_fresh(5000), _fresh(7000)], forced=False, time=2.0)
        first, second = recorder.recorded_checkpoint_dvs().values()
        assert first == second == (5000, 7000)
        assert first[0] is second[0] and first[1] is second[1]

    def test_entries_that_are_not_exact_ints_are_stored_as_given(self):
        count = _Count(1)
        recorder = TraceRecorder(3)
        recorder.record_checkpoint(0, 0, (1, 1, 1), forced=False, time=1.0)
        hazards = [(True, 1, 0), (1.0, 1, 0), (count, 1, 0)]
        for index, vector in enumerate(hazards, 1):
            recorder.record_checkpoint(0, index, vector, forced=False, time=float(index))
        recorder.record_checkpoint(1, 0, (1, 1, 1), forced=False, time=9.0)
        stored = recorder.recorded_checkpoint_dvs()
        for index, vector in enumerate(hazards, 1):
            kept = stored[(0, index)]
            assert [type(value) for value in kept] == [type(value) for value in vector]
            assert all(k is v for k, v in zip(kept, vector))
        # The plain vectors recorded before and after stay plain ints.
        for cid in ((0, 0), (1, 0)):
            assert [type(value) for value in stored[cid]] == [int, int, int]

    def test_a_plain_int_after_a_hazard_is_not_replaced_by_it(self):
        recorder = TraceRecorder(2)
        recorder.record_checkpoint(0, 0, (True, 1.0), forced=False, time=1.0)
        recorder.record_checkpoint(1, 0, (1, 1), forced=False, time=2.0)
        assert [type(value) for value in recorder.recorded_checkpoint_dvs()[(1, 0)]] == [
            int,
            int,
        ]

    def test_a_read_simulated_run_shares_its_entry_values(self):
        config = SimulationConfig(
            num_processes=4,
            duration=80.0,
            workload=UniformRandomWorkload(mean_checkpoint_gap=0.1),
            seed=3,
        )
        runner = SimulationRunner(config)
        runner.run()
        entries = [
            value for dv in runner.trace.recorded_checkpoint_dvs().values() for value in dv
        ]
        assert max(entries) > 256  # past the small-int cache
        assert len({id(value) for value in entries}) == len(set(entries))


class TestReceiveIds:
    def test_the_receive_keeps_the_send_id_object(self):
        log = EventLog(2)
        sent = _fresh(123_456)
        log.add_send(0, 1, message_id=sent)
        given = _fresh(123_456)
        assert given is not sent
        event = log.add_receive(given, time=1.0)
        assert event[E_MESSAGE_ID] is sent
        assert log.message(sent)[M_ID] is sent

    def test_a_recorded_receive_keeps_the_send_id_object(self):
        recorder = TraceRecorder(2)
        sent = _fresh(987_654)
        recorder.record_send(0, 1, sent, 1.0)
        recorder.record_receive(_fresh(987_654), 2.0)
        (event,) = [e for e in recorder.log.history(1).events]
        assert event[E_MESSAGE_ID] is sent
        assert recorder.log.message(sent)[M_ID] is event[E_MESSAGE_ID]
