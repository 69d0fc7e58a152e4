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

from typing import Dict, Sequence, Tuple

from repro.causality.events import (
    E_KIND,
    E_MESSAGE_ID,
    E_PID,
    E_SEQ,
    RECEIVE,
    SEND,
    EventLog,
)


class CausalOrder:
    """Causal (happened-before) order of the events of an :class:`EventLog`.

    The constructor performs a single replay of the log
    (:meth:`EventLog.causal_replay`), assigning each event a vector
    timestamp.  The replay requires that each receive event's send is
    replayable before it, which holds for every log produced by the simulator
    and the CCP builder; a log violating this is rejected with ``ValueError``.
    The order describes the log as of construction: events appended later are
    not timestamped.

    A query names an event by an :class:`~repro.causality.events.EventId`, an
    event record or an :class:`~repro.causality.events.Event` alike: all
    three hold the pid and the seq at ``E_PID`` and ``E_SEQ``.
    """

    def __init__(self, log: EventLog) -> None:
        self._log = log
        # Keyed by plain (pid, seq) tuples, which an EventId equals.
        self._timestamps: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        clocks = [[0] * log.num_processes for _ in log.processes]
        # Piggybacked clocks of the messages in flight at this point of the
        # replay; a message is received at most once, so its entry is popped.
        send_clocks: Dict[int, Tuple[int, ...]] = {}
        for event in log.causal_replay():
            pid = event[E_PID]
            kind = event[E_KIND]
            clock = clocks[pid]
            if kind == RECEIVE:
                clock[:] = map(max, clock, send_clocks.pop(event[E_MESSAGE_ID]))
            clock[pid] += 1
            stamp = tuple(clock)
            if kind == SEND:
                send_clocks[event[E_MESSAGE_ID]] = stamp
            self._timestamps[(pid, event[E_SEQ])] = stamp

    @property
    def log(self) -> EventLog:
        """The event log this order was built from."""
        return self._log

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def timestamp(self, event: Sequence) -> Tuple[int, ...]:
        """The vector timestamp assigned to ``event``."""
        return self._timestamps[(event[E_PID], event[E_SEQ])]

    def precedes(self, first: Sequence, second: Sequence) -> bool:
        """True iff ``first -> second`` (strict causal precedence)."""
        first_id = (first[E_PID], first[E_SEQ])
        second_id = (second[E_PID], second[E_SEQ])
        if first_id == second_id:
            return False
        ts_first = self._timestamps[first_id]
        ts_second = self._timestamps[second_id]
        # e -> e' iff ts(e)[e.pid] <= ts(e')[e.pid] and e != e' (standard VC fact),
        # but for events of the same process program order is simply seq order.
        pid = first_id[0]
        if pid == second_id[0]:
            return first_id[1] < second_id[1]
        return ts_first[pid] <= ts_second[pid]
