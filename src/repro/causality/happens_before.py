"""Ground-truth happened-before oracle over an :class:`EventLog`.

Definition 1 of the paper (Lamport's causal precedence): ``e_a^alpha -> e_b^beta``
iff one of

* same process and ``beta = alpha + 1`` (program order, transitively any later
  event of the same process);
* ``e_a^alpha`` is the send of a message and ``e_b^beta`` its receive;
* transitivity.

The oracle assigns every event a vector timestamp using the standard vector
clock rules and answers precedence queries in ``O(1)`` afterwards.  It serves
as the independent ground truth against which dependency-vector based
reasoning (Equation 2) is property-tested, and as the engine behind the
literal Theorem-1/2 and Lemma-1 transcriptions on arbitrary CCPs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.causality.events import Event, EventId, EventKind, EventLog


class CausalOrder:
    """Causal (happened-before) order of the events of an :class:`EventLog`.

    The constructor performs a single replay of the log
    (:meth:`EventLog.causal_replay`), assigning each event a vector
    timestamp.  The replay requires that each receive event's send is
    replayable before it, which holds for every log produced by the simulator
    and the CCP builder; a log violating this is rejected with ``ValueError``.
    The order describes the log as of construction: events appended later are
    not timestamped.
    """

    def __init__(self, log: EventLog) -> None:
        self._log = log
        self._timestamps: Dict[EventId, Tuple[int, ...]] = {}
        clocks = [[0] * log.num_processes for _ in log.processes]
        # Piggybacked clocks of the messages in flight at this point of the
        # replay; a message is received at most once, so its entry is popped.
        send_clocks: Dict[int, Tuple[int, ...]] = {}
        for event in log.causal_replay():
            clock = clocks[event.pid]
            if event.kind is EventKind.RECEIVE:
                assert event.message_id is not None
                clock[:] = map(max, clock, send_clocks.pop(event.message_id))
            clock[event.pid] += 1
            stamp = tuple(clock)
            if event.kind is EventKind.SEND:
                assert event.message_id is not None
                send_clocks[event.message_id] = stamp
            self._timestamps[event.event_id] = stamp

    @property
    def log(self) -> EventLog:
        """The event log this order was built from."""
        return self._log

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def timestamp(self, event: EventId | Event) -> Tuple[int, ...]:
        """The vector timestamp assigned to ``event``."""
        event_id = event.event_id if isinstance(event, Event) else event
        return self._timestamps[event_id]

    def precedes(self, first: EventId | Event, second: EventId | Event) -> bool:
        """True iff ``first -> second`` (strict causal precedence)."""
        first_id = first.event_id if isinstance(first, Event) else first
        second_id = second.event_id if isinstance(second, Event) else second
        if first_id == second_id:
            return False
        ts_first = self._timestamps[first_id]
        ts_second = self._timestamps[second_id]
        # e -> e' iff ts(e)[e.pid] <= ts(e')[e.pid] and e != e' (standard VC fact),
        # but for events of the same process program order is simply seq order.
        if first_id.pid == second_id.pid:
            return first_id.seq < second_id.seq
        return ts_first[first_id.pid] <= ts_second[first_id.pid]
