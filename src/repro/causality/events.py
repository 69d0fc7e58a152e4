"""Event and message records for distributed executions.

The system model follows Section 2 of the paper: a distributed system is a set
of processes ``p_1 .. p_n`` that communicate only by exchanging messages.  A
process execution is a sequence of events; events are *internal* (including
local checkpoints) or *communication* events (send/receive).

An :class:`EventLog` keeps exactly one record per event and one per message,
and each record is an *exact* tuple of atoms (ints, floats, bools, ``None``):

* an event is ``(pid, seq, kind, message_id, checkpoint_index, time,
  forced)``, with ``kind`` the plain ``int`` code of its :class:`EventKind`;
* a message is ``(message_id, sender, receiver, send_seq, send_interval,
  receive_seq, receive_interval)`` — the positions *and* the checkpoint
  intervals of its send and receive, stamped by the log the moment they are
  recorded, so nothing downstream re-derives or shadows them.

A message's records share one id object: the receive event and the
delivered message record hold the id the send was recorded with, not the
equal one the caller of :meth:`EventLog.add_receive` passed (a replayed
trace's parser makes a fresh int for every id it reads).

CPython's cyclic garbage collector stops tracking such a tuple at its first
young-generation pass (it never does for a tuple subclass, and an enum member
is itself tracked), so a full collection never walks the history, however
long the run.  Fields are read by position, through the module-level
constants ``E_*`` (events) and ``M_*`` (messages), and kinds are compared
against the ``int`` codes :data:`INTERNAL`, :data:`SEND`, :data:`RECEIVE` and
:data:`CHECKPOINT`.

:class:`Event` and :class:`Message` are the ``NamedTuple`` classes that name
those fields, in that order.  They build literal references (tests, hand-made
records): since :class:`EventKind` is an ``IntEnum`` whose values are the
stored codes, a literal compares and hashes equal to the stored record of the
same values.  The log itself never stores one.  The records carry no
behaviour; all causal reasoning is done by
:mod:`repro.causality.happens_before` and the CCP layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Final, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class EventKind(enum.IntEnum):
    """The kind of an event; its value is the code an event record stores."""

    INTERNAL = 0
    SEND = 1
    RECEIVE = 2
    CHECKPOINT = 3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


# The codes a record stores: plain ints.  A member is GC-tracked, and reading
# one off the class goes through the enum metaclass (~0.2 us on CPython 3.11).
INTERNAL: Final = 0
SEND: Final = 1
RECEIVE: Final = 2
CHECKPOINT: Final = 3

# Field positions of an event record (the order of Event's fields).
E_PID: Final = 0
E_SEQ: Final = 1
E_KIND: Final = 2
E_MESSAGE_ID: Final = 3
E_CHECKPOINT_INDEX: Final = 4
E_TIME: Final = 5
E_FORCED: Final = 6
# Field positions of a message record (the order of Message's fields).
M_ID: Final = 0
M_SENDER: Final = 1
M_RECEIVER: Final = 2
M_SEND_SEQ: Final = 3
M_SEND_INTERVAL: Final = 4
M_RECEIVE_SEQ: Final = 5
M_RECEIVE_INTERVAL: Final = 6

#: A stored event: ``(pid, seq, kind, message_id, checkpoint_index, time,
#: forced)``.  ``message_id`` is an int for a SEND or RECEIVE and
#: ``checkpoint_index`` one for a CHECKPOINT; each is None otherwise.
EventRecord = Tuple[int, int, int, Any, Any, float, bool]
#: A stored message: ``(message_id, sender, receiver, send_seq, send_interval,
#: receive_seq, receive_interval)``.
MessageRecord = Tuple[int, int, int, int, int, int, int]


class EventId(NamedTuple):
    """Identifies an event by process id and position in that process history.

    ``seq`` is the zero-based index of the event in the process's local event
    sequence (``e_i^0, e_i^1, ...`` in the paper's notation).  Its fields sit
    where an event record's ``pid`` and ``seq`` do, so ``(r[E_PID],
    r[E_SEQ])`` identifies an event whether ``r`` is an id or a record; it
    equals that plain tuple.
    """

    pid: int
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"e{self.pid}^{self.seq}"


class _EventFields(NamedTuple):
    pid: int
    seq: int
    kind: int
    message_id: Optional[int] = None
    checkpoint_index: Optional[int] = None
    time: float = 0.0
    forced: bool = False


class Event(_EventFields):
    """The fields of an event record, by name: a literal reference to one.

    Parameters
    ----------
    pid:
        The process that executed the event.
    seq:
        The position of the event in the process's history.
    kind:
        One of :class:`EventKind` (or its code).
    message_id:
        For SEND/RECEIVE events, the id of the message involved.
    checkpoint_index:
        For CHECKPOINT events, the index of the checkpoint taken (``gamma`` in
        ``s_i^gamma``).
    time:
        Optional simulated timestamp (used only for reporting; the algorithms
        never rely on it, matching the asynchronous system model).
    forced:
        For CHECKPOINT events, whether the checkpoint was forced by the
        communication-induced protocol (as opposed to a basic checkpoint).
    """

    __slots__ = ()

    def __new__(
        cls,
        pid: int,
        seq: int,
        kind: int,
        message_id: Optional[int] = None,
        checkpoint_index: Optional[int] = None,
        time: float = 0.0,
        forced: bool = False,
    ) -> "Event":
        if message_id is None and kind in (SEND, RECEIVE):
            raise ValueError(f"{EventKind(kind)} event requires a message_id")
        if checkpoint_index is None and kind == CHECKPOINT:
            raise ValueError("CHECKPOINT event requires a checkpoint_index")
        return tuple.__new__(cls, (pid, seq, kind, message_id, checkpoint_index, time, forced))

    @property
    def event_id(self) -> EventId:
        """The :class:`EventId` of this event."""
        return EventId(self.pid, self.seq)

    def is_checkpoint(self) -> bool:
        """True if this event records the taking of a local checkpoint."""
        return self.kind == CHECKPOINT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = ""
        if self.kind in (SEND, RECEIVE):
            extra = f"(m{self.message_id})"
        elif self.kind == CHECKPOINT:
            extra = f"(c{self.pid}^{self.checkpoint_index})"
        return f"{EventKind(self.kind)}@p{self.pid}#{self.seq}{extra}"


class Message(NamedTuple):
    """The fields of a message record, by name: a literal reference to one.

    ``send_seq`` / ``receive_seq`` are the positions of the send and receive
    events in the sender's and receiver's histories; ``send_interval`` /
    ``receive_interval`` are the checkpoint intervals those events belong to
    (``alpha`` such that the send is in ``I_sender^alpha``, likewise for the
    receive) — the only facts about messages the zigzag-path analysis needs
    (Definition 3).

    A message is *delivered* when both its send and its receive are known.
    Messages that were sent but never received (lost, or still in transit at
    the cut under analysis) have ``receive_seq == receive_interval == -1``;
    they do not contribute dependencies, matching the CCP definition in
    Section 2.2 which excludes lost and in-transit messages.
    """

    message_id: int
    sender: int
    receiver: int
    send_seq: int
    send_interval: int
    receive_seq: int = -1
    receive_interval: int = -1

    @property
    def send_event(self) -> EventId:
        """The :class:`EventId` of the send event."""
        return EventId(self.sender, self.send_seq)

    @property
    def receive_event(self) -> Optional[EventId]:
        """The :class:`EventId` of the receive event (None while undelivered)."""
        if self.receive_seq < 0:
            return None
        return EventId(self.receiver, self.receive_seq)

    @property
    def delivered(self) -> bool:
        """True if the message was received within the recorded execution."""
        return self.receive_seq >= 0


@dataclass
class ProcessHistory:
    """The ordered sequence of event records of one process."""

    pid: int
    events: List[EventRecord] = field(default_factory=list)
    #: The CHECKPOINT records of ``events``, in order (``checkpoints[k]`` took
    #: checkpoint ``k``).  Kept alongside so the checkpoint queries cost the
    #: number of checkpoints, not of events.
    checkpoints: List[EventRecord] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self.events)

    def __getitem__(self, seq: int) -> EventRecord:
        return self.events[seq]

    def checkpoint_events(self) -> List[EventRecord]:
        """All CHECKPOINT records in order."""
        return list(self.checkpoints)

    def last_checkpoint_index(self) -> int:
        """Index of the last checkpoint taken, or -1 if none was taken."""
        return len(self.checkpoints) - 1


class EventLog:
    """A complete record of a distributed execution.

    The log stores one :class:`ProcessHistory` per process and a registry of
    message records.  It is the single source of truth from which causal
    orders, cuts and checkpoint-and-communication patterns are derived.

    The class enforces the structural invariants of the model:

    * event sequence numbers are contiguous per process;
    * each message id is sent exactly once and received at most once;
    * a receive event can only be recorded after its send event exists.

    Every history starts at the process's first event, so a process's
    checkpoints are recorded from index 0.  Every reader hands out the stored
    records themselves (see the module docstring).
    """

    def __init__(self, num_processes: int) -> None:
        if num_processes <= 0:
            raise ValueError("an execution needs at least one process")
        self._histories: List[ProcessHistory] = [
            ProcessHistory(pid) for pid in range(num_processes)
        ]
        self._messages: Dict[int, MessageRecord] = {}
        self._next_message_id = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """Number of processes in the execution."""
        return len(self._histories)

    @property
    def processes(self) -> range:
        """The process ids ``0 .. n-1``."""
        return range(self.num_processes)

    def history(self, pid: int) -> ProcessHistory:
        """The event history of process ``pid``."""
        return self._histories[pid]

    def histories(self) -> Sequence[ProcessHistory]:
        """All process histories, indexed by pid."""
        return tuple(self._histories)

    def checkpoints_taken(self) -> Tuple[int, ...]:
        """Per-process count of recorded checkpoints (each volatile index)."""
        return tuple([len(history.checkpoints) for history in self._histories])

    def event(self, event_id: Sequence[int]) -> EventRecord:
        """The event record identified by ``event_id`` (an :class:`EventId`)."""
        return self._histories[event_id[E_PID]].events[event_id[E_SEQ]]

    def events(self) -> Iterator[EventRecord]:
        """Iterate over all event records, grouped by process, in program order."""
        for history in self._histories:
            yield from history.events

    def total_events(self) -> int:
        """Total number of events across all processes."""
        return sum(len(h) for h in self._histories)

    def messages(self) -> List[MessageRecord]:
        """All message records (delivered or not), in send-recording order."""
        return list(self._messages.values())

    def delivered_messages(self) -> List[MessageRecord]:
        """Records of the messages that have both a send and a receive event."""
        return [m for m in self._messages.values() if m[M_RECEIVE_SEQ] >= 0]

    def message(self, message_id: int) -> MessageRecord:
        """The record of the message with id ``message_id``."""
        return self._messages[message_id]

    def has_message(self, message_id: int) -> bool:
        """True if a message with the given id was registered."""
        return message_id in self._messages

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    # The add_* methods number the event and stamp the message themselves and
    # append the records to the history's lists.  A negative pid would index
    # another process's history, so it is refused explicitly.
    def add_internal(self, pid: int, *, time: float = 0.0) -> EventRecord:
        """Record an internal event at process ``pid``."""
        if pid < 0:
            raise ValueError(f"unknown process {pid}")
        events = self._histories[pid].events
        event = (pid, len(events), INTERNAL, None, None, time, False)
        events.append(event)
        return event

    def add_checkpoint(
        self, pid: int, checkpoint_index: int, *, time: float = 0.0, forced: bool = False
    ) -> EventRecord:
        """Record a checkpoint event at process ``pid``.

        Checkpoint indices must be taken in increasing order, starting at 0.
        """
        if pid < 0:
            raise ValueError(f"unknown process {pid}")
        history = self._histories[pid]
        expected = len(history.checkpoints)
        if checkpoint_index != expected:
            raise ValueError(
                f"process {pid}: expected checkpoint index {expected}, "
                f"got {checkpoint_index}"
            )
        event = (pid, len(history.events), CHECKPOINT, None, checkpoint_index, time, forced)
        history.events.append(event)
        history.checkpoints.append(event)
        return event

    def add_send(
        self,
        sender: int,
        receiver: int,
        *,
        message_id: Optional[int] = None,
        time: float = 0.0,
    ) -> Tuple[EventRecord, MessageRecord]:
        """Record the sending of a message from ``sender`` to ``receiver``.

        Returns the send event and the (not-yet-delivered) message record,
        stamped with the sender's current checkpoint interval.
        """
        if sender < 0 or not 0 <= receiver < len(self._histories):
            raise ValueError(f"unknown process in a send from {sender} to {receiver}")
        if message_id is None:
            message_id = self._next_message_id
        if message_id in self._messages:
            raise ValueError(f"message id {message_id} already used")
        if message_id >= self._next_message_id:
            self._next_message_id = message_id + 1
        history = self._histories[sender]
        seq = len(history.events)
        event = (sender, seq, SEND, message_id, None, time, False)
        history.events.append(event)
        message = (message_id, sender, receiver, seq, len(history.checkpoints), -1, -1)
        self._messages[message_id] = message
        return event, message

    def add_receive(self, message_id: int, *, time: float = 0.0) -> EventRecord:
        """Record the receipt of a previously sent message.

        The message record is replaced by its delivered state, stamped with
        the receiver's current checkpoint interval.  Both it and the receive
        event hold the send's id object, not ``message_id`` itself.
        """
        message = self._messages.get(message_id)
        if message is None:
            raise ValueError(f"receive of unknown message {message_id}")
        mid, sender, pid, send_seq, send_interval, receive_seq, _ = message
        if receive_seq >= 0:
            raise ValueError(f"message {message_id} already received")
        history = self._histories[pid]
        seq = len(history.events)
        event = (pid, seq, RECEIVE, mid, None, time, False)
        history.events.append(event)
        self._messages[mid] = (
            mid, sender, pid, send_seq, send_interval, seq, len(history.checkpoints)
        )
        return event

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def causal_replay(self) -> Iterator[EventRecord]:
        """Iterate over all event records in an order consistent with happened-before.

        Program order per process, and every receive after its send.  A
        process is followed until it blocks on a receive whose send has not
        been yielded yet; yielding that send wakes it up again, so every
        event is visited once.  Raises ``ValueError`` when some receive's
        send never appears (impossible for logs built through ``add_*``).
        """
        histories = [history.events for history in self._histories]
        cursors = [0] * len(histories)
        waiting: Dict[int, int] = {}  # message id -> receiver blocked on it
        runnable = list(reversed(self.processes))
        while runnable:
            pid = runnable.pop()
            events = histories[pid]
            while cursors[pid] < len(events):
                event = events[cursors[pid]]
                kind = event[E_KIND]
                if kind == RECEIVE:
                    message = self._messages[event[E_MESSAGE_ID]]
                    if cursors[message[M_SENDER]] <= message[M_SEND_SEQ]:
                        waiting[event[E_MESSAGE_ID]] = pid
                        break
                cursors[pid] += 1
                yield event
                if kind == SEND and event[E_MESSAGE_ID] in waiting:
                    runnable.append(waiting.pop(event[E_MESSAGE_ID]))
        if waiting:
            raise ValueError(
                "event log is not causally replayable: some receive has no "
                "matching send before it"
            )

    def prefix(self, lengths: Sequence[int]) -> "EventLog":
        """Return a new :class:`EventLog` containing only a prefix per process.

        ``lengths[pid]`` gives the number of events of ``pid`` to keep.  The
        cut need not be consistent: messages whose receive event falls
        outside it become undelivered, and messages whose *send* event falls
        outside are dropped entirely (a kept receive of such a message is
        replaced by an INTERNAL placeholder so event numbering holds).

        The kept records are shared with this log, not re-created: the event
        lists are sliced and only the *discarded* suffixes are walked — they
        are the only places a message can change state.  This log is left
        untouched, so patterns already derived from it stay valid.
        """
        if len(lengths) != self.num_processes:
            raise ValueError("one prefix length per process is required")
        for pid, length in enumerate(lengths):
            if not 0 <= length <= len(self._histories[pid]):
                raise ValueError(f"invalid prefix length {length} for process {pid}")
        sub = EventLog(self.num_processes)
        messages = sub._messages = dict(self._messages)
        for history in self._histories:
            length = lengths[history.pid]
            gone = sum(event[E_KIND] == CHECKPOINT for event in history.events[length:])
            sub._histories[history.pid] = ProcessHistory(
                history.pid,
                history.events[:length],
                history.checkpoints[: len(history.checkpoints) - gone],
            )
        for history in self._histories:
            for event in history.events[lengths[history.pid]:]:
                kind = event[E_KIND]
                if kind == SEND:
                    message = messages.pop(event[E_MESSAGE_ID])
                    receiver, seq = message[M_RECEIVER], message[M_RECEIVE_SEQ]
                    if 0 <= seq < lengths[receiver]:
                        kept = sub._histories[receiver].events
                        kept[seq] = (receiver, seq, INTERNAL, None, None, kept[seq][E_TIME], False)
                elif kind == RECEIVE:
                    pending = messages.get(event[E_MESSAGE_ID])
                    if pending is not None:
                        messages[event[E_MESSAGE_ID]] = pending[:M_RECEIVE_SEQ] + (-1, -1)
        sub._next_message_id = max(messages, default=-1) + 1
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventLog(processes={self.num_processes}, "
            f"events={self.total_events()}, messages={len(self._messages)})"
        )
