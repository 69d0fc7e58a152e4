"""Event and message records for distributed executions.

The system model follows Section 2 of the paper: a distributed system is a set
of processes ``p_1 .. p_n`` that communicate only by exchanging messages.  A
process execution is a sequence of events; events are *internal* (including
local checkpoints) or *communication* events (send/receive).

:class:`Event` and :class:`Message` are immutable, tuple-backed records
(``NamedTuple`` classes): one allocation each, hashable, comparable and
picklable by value, with the field names as read-only attributes.  An
:class:`EventLog` keeps exactly one :class:`Event` per event and one
:class:`Message` per message; the message carries the positions *and* the
checkpoint intervals of its send and receive, stamped by the log the moment
they are recorded, so nothing downstream re-derives or shadows them.  The
records carry no behaviour beyond validation and convenient accessors; all
causal reasoning is done by :mod:`repro.causality.happens_before` and the CCP
layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class EventKind(enum.Enum):
    """The kind of an event in a process history."""

    INTERNAL = "internal"
    SEND = "send"
    RECEIVE = "receive"
    CHECKPOINT = "checkpoint"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Module-level aliases: an enum member lookup goes through the metaclass
# (~0.2 us on CPython 3.11), and the recording path does several per event.
_INTERNAL = EventKind.INTERNAL
_SEND = EventKind.SEND
_RECEIVE = EventKind.RECEIVE
_CHECKPOINT = EventKind.CHECKPOINT
# Builds a record from a complete field tuple, skipping the class's __new__.
_new = tuple.__new__


class EventId(NamedTuple):
    """Identifies an event by process id and position in that process history.

    ``seq`` is the zero-based index of the event in the process's local event
    sequence (``e_i^0, e_i^1, ...`` in the paper's notation).  A ``NamedTuple``
    like :class:`Event`, so it equals a plain tuple of the same values; no
    container in the library mixes the two.
    """

    pid: int
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"e{self.pid}^{self.seq}"


class _EventFields(NamedTuple):
    pid: int
    seq: int
    kind: EventKind
    message_id: Optional[int] = None
    checkpoint_index: Optional[int] = None
    time: float = 0.0
    forced: bool = False


class Event(_EventFields):
    """A single event executed by a process.

    Parameters
    ----------
    pid:
        The process that executed the event.
    seq:
        The position of the event in the process's history.
    kind:
        One of :class:`EventKind`.
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
        kind: EventKind,
        message_id: Optional[int] = None,
        checkpoint_index: Optional[int] = None,
        time: float = 0.0,
        forced: bool = False,
    ) -> "Event":
        if message_id is None and (kind is _SEND or kind is _RECEIVE):
            raise ValueError(f"{kind} event requires a message_id")
        if checkpoint_index is None and kind is _CHECKPOINT:
            raise ValueError("CHECKPOINT event requires a checkpoint_index")
        return tuple.__new__(cls, (pid, seq, kind, message_id, checkpoint_index, time, forced))

    @property
    def event_id(self) -> EventId:
        """The :class:`EventId` of this event."""
        return EventId(self.pid, self.seq)

    def is_checkpoint(self) -> bool:
        """True if this event records the taking of a local checkpoint."""
        return self.kind is _CHECKPOINT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = ""
        if self.kind in (_SEND, _RECEIVE):
            extra = f"(m{self.message_id})"
        elif self.kind is _CHECKPOINT:
            extra = f"(c{self.pid}^{self.checkpoint_index})"
        return f"{self.kind.value}@p{self.pid}#{self.seq}{extra}"


class Message(NamedTuple):
    """An application message exchanged between two processes.

    ``send_seq`` / ``receive_seq`` are the positions of the send and receive
    events in the sender's and receiver's histories; ``send_interval`` /
    ``receive_interval`` are the checkpoint intervals those events belong to
    (``alpha`` such that the send is in ``I_sender^alpha``, likewise for the
    receive) — the only facts about messages the zigzag-path analysis needs
    (Definition 3).

    A message is *delivered* when both its send and its receive are known.
    Messages that were sent but never received (lost, or still in transit at
    the cut under analysis) have ``receive_seq == receive_interval == -1`` and
    ``receive_event is None``; they do not contribute dependencies, matching
    the CCP definition in Section 2.2 which excludes lost and in-transit
    messages.
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
    """The ordered sequence of events executed by one process."""

    pid: int
    events: List[Event] = field(default_factory=list)
    #: The CHECKPOINT events of ``events``, in order.  Kept alongside so the
    #: checkpoint queries cost the number of checkpoints, not of events.
    checkpoints: List[Event] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, seq: int) -> Event:
        return self.events[seq]

    def checkpoint_events(self) -> List[Event]:
        """All CHECKPOINT events in order."""
        return list(self.checkpoints)

    def last_checkpoint_index(self) -> int:
        """Index of the last checkpoint taken, or -1 if none was taken."""
        if not self.checkpoints:
            return -1
        index = self.checkpoints[-1].checkpoint_index
        assert index is not None
        return index


class EventLog:
    """A complete record of a distributed execution.

    The log stores one :class:`ProcessHistory` per process and a registry of
    messages.  It is the single source of truth from which causal orders,
    cuts and checkpoint-and-communication patterns are derived.

    The class enforces the structural invariants of the model:

    * event sequence numbers are contiguous per process;
    * each message id is sent exactly once and received at most once;
    * a receive event can only be recorded after its send event exists.

    Every history starts at the process's first event, so a process's
    checkpoints are recorded from index 0.
    """

    def __init__(self, num_processes: int) -> None:
        if num_processes <= 0:
            raise ValueError("an execution needs at least one process")
        self._histories: List[ProcessHistory] = [
            ProcessHistory(pid) for pid in range(num_processes)
        ]
        self._messages: Dict[int, Message] = {}
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

    def event(self, event_id: EventId) -> Event:
        """The event identified by ``event_id``."""
        return self._histories[event_id.pid][event_id.seq]

    def events(self) -> Iterator[Event]:
        """Iterate over all events, grouped by process, in program order."""
        for history in self._histories:
            yield from history

    def total_events(self) -> int:
        """Total number of events across all processes."""
        return sum(len(h) for h in self._histories)

    def messages(self) -> List[Message]:
        """All registered messages (delivered or not), in send-recording order."""
        return list(self._messages.values())

    def delivered_messages(self) -> List[Message]:
        """Messages that have both a send and a receive event."""
        return [m for m in self._messages.values() if m.receive_seq >= 0]

    def message(self, message_id: int) -> Message:
        """The message with id ``message_id``."""
        return self._messages[message_id]

    def has_message(self, message_id: int) -> bool:
        """True if a message with the given id was registered."""
        return message_id in self._messages

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    # The add_* methods number the event and stamp the message themselves, so
    # they build the tuples directly (no validating __new__) and append to the
    # history's lists.  A negative pid would index another process's history,
    # so it is refused explicitly.
    def add_internal(self, pid: int, *, time: float = 0.0) -> Event:
        """Record an internal event at process ``pid``."""
        if pid < 0:
            raise ValueError(f"unknown process {pid}")
        events = self._histories[pid].events
        event = _new(Event, (pid, len(events), _INTERNAL, None, None, time, False))
        events.append(event)
        return event

    def add_checkpoint(
        self, pid: int, checkpoint_index: int, *, time: float = 0.0, forced: bool = False
    ) -> Event:
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
        seq = len(history.events)
        event = _new(Event, (pid, seq, _CHECKPOINT, None, checkpoint_index, time, forced))
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
    ) -> Tuple[Event, Message]:
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
        event = _new(Event, (sender, seq, _SEND, message_id, None, time, False))
        history.events.append(event)
        interval = len(history.checkpoints)
        message = _new(Message, (message_id, sender, receiver, seq, interval, -1, -1))
        self._messages[message_id] = message
        return event, message

    def add_receive(self, message_id: int, *, time: float = 0.0) -> Event:
        """Record the receipt of a previously sent message.

        The message record is replaced by its delivered state, stamped with
        the receiver's current checkpoint interval.
        """
        message = self._messages.get(message_id)
        if message is None:
            raise ValueError(f"receive of unknown message {message_id}")
        _, sender, pid, send_seq, send_interval, receive_seq, _ = message
        if receive_seq >= 0:
            raise ValueError(f"message {message_id} already received")
        history = self._histories[pid]
        seq = len(history.events)
        event = _new(Event, (pid, seq, _RECEIVE, message_id, None, time, False))
        history.events.append(event)
        interval = len(history.checkpoints)
        delivered = (message_id, sender, pid, send_seq, send_interval, seq, interval)
        self._messages[message_id] = _new(Message, delivered)
        return event

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def causal_replay(self) -> Iterator[Event]:
        """Iterate over all events in an order consistent with happened-before.

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
                if event.kind is _RECEIVE:
                    assert event.message_id is not None
                    message = self._messages[event.message_id]
                    if cursors[message.sender] <= message.send_seq:
                        waiting[event.message_id] = pid
                        break
                cursors[pid] += 1
                yield event
                if event.kind is _SEND and event.message_id in waiting:
                    runnable.append(waiting.pop(event.message_id))
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

        The kept events are shared with this log, not re-created: the event
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
            discarded = history.events[length:]
            gone = sum(event.kind is _CHECKPOINT for event in discarded)
            sub._histories[history.pid] = ProcessHistory(
                history.pid,
                history.events[:length],
                history.checkpoints[: len(history.checkpoints) - gone],
            )
        for history in self._histories:
            for event in history.events[lengths[history.pid]:]:
                if event.kind is _SEND:
                    assert event.message_id is not None
                    message = messages.pop(event.message_id)
                    if 0 <= message.receive_seq < lengths[message.receiver]:
                        kept = sub._histories[message.receiver].events
                        orphan = kept[message.receive_seq]
                        kept[message.receive_seq] = Event(
                            orphan.pid, orphan.seq, _INTERNAL, time=orphan.time
                        )
                elif event.kind is _RECEIVE:
                    assert event.message_id is not None
                    pending = messages.get(event.message_id)
                    if pending is not None:
                        messages[event.message_id] = pending._replace(
                            receive_seq=-1, receive_interval=-1
                        )
        sub._next_message_id = max(messages, default=-1) + 1
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventLog(processes={self.num_processes}, "
            f"events={self.total_events()}, messages={len(self._messages)})"
        )
