"""Global execution recorder.

The :class:`TraceRecorder` observes everything the simulated processes do and
maintains the corresponding :class:`repro.causality.EventLog`, together with
the dependency vectors the middleware stored with each stable checkpoint.  At
any point it can be turned into a :class:`repro.ccp.CCP` for analysis: the CCP
of the recorded execution is exactly the pattern the paper's characterisations
are stated over, so the recorder is what connects the *online* algorithms to
the *offline* oracles in tests and benchmarks.

The event log *is* the CCP substrate: the log stamps every message with the
checkpoint intervals of its send and receive the moment they are recorded
(an event's interval is fixed when it happens), and the recorder keeps no
message table of its own — which sends are pending, which messages are
delivered and in which intervals is read from the log's one message record
per message.  Like the log's records, the recorder's stored vectors and their
``(pid, index)`` keys are exact tuples of ints, which the cyclic garbage
collector stops tracking (see :mod:`repro.causality.events`).  A stored
vector enters through :meth:`TraceRecorder.record_checkpoint` alone — the
simulator's reads, trace replay and the live shard merge all call it — and
its entries are the recorder's: each distinct entry value is one int object
per recorder, however many vectors hold it (a replayed trace's parser makes
a fresh int per number it reads).

Analysis goes through one door: :meth:`knowledge_view` hands out one
:class:`repro.ccp.incremental.IncrementalAnalysisView` per mutation version,
and the one snapshot :meth:`ccp` builds at that version carries that same
view as its ``analysis_provider``.  The audits and the recovery manager read
the view alone; a snapshot is for what needs the event graph — the zigzag
kernel, event-level references, stored checkpoint records — and it attaches
no volatile vector (``ccp.dv(v_i)`` is the ground-truth one).  The view
memoises its own answers (retained sets, recovery lines),
so everybody who asks at one version shares them; they are read from a
:class:`repro.ccp.incremental.CheckpointKnowledgeTracker` by bisection, with
no vector-clock replay unless a caller asks for event-level precedence.  The
tracker has one lifecycle: it is born by one causal-order replay of the
current log at the first :meth:`ccp`, :meth:`knowledge_view` or
:meth:`knowledge_mark`, and the ``record_*`` methods keep it current in O(P)
per event from then on — unless a recovery session leaves a placeholder
receive behind, which drops it to be born again at the next read.  A caller
that audits event by event (the schedule explorer) takes a
:meth:`knowledge_mark` before the first event and asks
:meth:`knowledge_changed_since` which processes' knowledge moved.  A run
that asks for no analysis does no per-event analysis work — and under the
simulator such a run does
not reach the recorder at all until somebody reads it: the
:class:`~repro.simulation.runner.SimulationRunner` keeps its nodes'
occurrences and applies them, through these same ``record_*`` calls and in
arrival order, at the first read (``runner.trace``, a ``ccp()``, a recovery
session, a join or leave).  The recorder has one recording path and cannot
tell the difference, except in time.

The recorder observes the execution from outside the algorithm and keeps
its whole history: a checkpoint a collector eliminates from stable storage
stays in the log, so every process's checkpoints are recorded from index 0.

Recovery sessions rewrite history: the post-rollback state of the system is the
recovery-line cut, so :meth:`apply_recovery` truncates each rolled-back
process's history at its recovery-line component (the resulting prefix is a
consistent cut because the recovery line is consistent);
:meth:`repro.causality.events.EventLog.prefix` repairs the message records
from the discarded suffixes alone — a session costs what it rolled back, not
the length of the run.  The session rebinds the log and the stored-vector
map rather than cutting them in place, so a snapshot shares both with the
recorder, copying neither, and one handed out before a session keeps the
pre-crash history and vectors.

Persistence: the recorder accepts :class:`TraceSink` observers
(:meth:`attach_sink`).  Every successfully recorded occurrence — including
recovery sessions, which replay needs to reproduce the history truncation —
is forwarded to each sink in recording order, which is how
:class:`repro.traceio.writer.TraceWriter` turns a live run into a durable,
replayable artifact without the recorder knowing anything about files.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.causality.events import (
    CHECKPOINT,
    E_CHECKPOINT_INDEX,
    E_KIND,
    E_MESSAGE_ID,
    E_PID,
    E_SEQ,
    M_RECEIVE_SEQ,
    M_RECEIVER,
    RECEIVE,
    SEND,
    EventLog,
)
from repro.ccp.checkpoint import CheckpointId
from repro.ccp.incremental import CheckpointKnowledgeTracker, IncrementalAnalysisView
from repro.ccp.pattern import CCP
from repro.membership import MembershipError, MembershipView
from repro.recovery.rollback_plan import RollbackPlan

#: The one entry type a stored vector's entries may share through the value table.
_INTS = frozenset((int,))


class TraceSink(Protocol):
    """Observer of recorded occurrences, in recording order.

    A recorder fires the callbacks *after* it accepted the occurrence
    (validation passed, internal state mutated).  Until a simulated run's
    recorder is first read, the runner's port feeds the sink instead, before
    the recorder sees the occurrence (the port says why the recorder would
    accept it; a refusal at that read fails the run).  Replaying the same
    callback sequence into a fresh :class:`TraceRecorder` rebuilds an
    identical recorder — the contract :mod:`repro.traceio` is built on.
    """

    def on_send(
        self, sender: int, receiver: int, message_id: int, time: float
    ) -> None:
        """An application send was recorded."""

    def on_receive(self, message_id: int, time: float) -> None:
        """A message delivery was recorded."""

    def on_duplicate_receive(self, message_id: int, time: float) -> None:
        """A duplicate delivery of an already-received message was recorded."""

    def on_checkpoint(
        self,
        pid: int,
        index: int,
        dependency_vector: Sequence[int],
        *,
        forced: bool,
        time: float,
    ) -> None:
        """A stable checkpoint (and its stored vector) was recorded."""

    def on_internal(self, pid: int, time: float) -> None:
        """An internal application event was recorded."""

    def on_recovery(self, plan: RollbackPlan) -> None:
        """A recovery session truncated the recorded history."""

    def on_join(self, pid: int, time: float) -> None:
        """A process joined the membership."""

    def on_leave(self, pid: int, time: float) -> None:
        """A process left the membership permanently."""


class TraceRecorder:
    """Records a simulated execution as an event log plus checkpoint vectors.

    What a record shares: a stored vector's entries are the objects of the
    recorder's value table (one per distinct value, exact ints only; any
    other vector is kept as given), and the log's receive event and
    delivered message record hold the send's message id object (see
    :meth:`repro.causality.events.EventLog.add_receive`).
    """

    def __init__(
        self,
        num_processes: int,
        *,
        initial_members: Optional[Iterable[int]] = None,
    ) -> None:
        self._num_processes = num_processes
        # Membership: pids without a join event are members from the start;
        # dormant joiners exist in the log (empty history) until they join.
        self._membership = MembershipView(
            num_processes,
            None if initial_members is None else frozenset(initial_members),
        )
        # The view's own live set: the per-event membership test is one lookup.
        self._members = self._membership.live
        self._log = EventLog(num_processes)
        # Keyed by plain (pid, index) tuples, which a CheckpointId equals.
        self._recorded_dvs: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # Every distinct stored-vector entry value, once: record_checkpoint
        # builds each stored vector from these objects.
        self._values: Dict[int, int] = {}
        # Incremental CCP substrate.
        self._version = 0
        # Born at the first ccp(), knowledge_view() or knowledge_mark()
        # (see _tracked and _catch_up_tracker).
        self._tracker: Optional[CheckpointKnowledgeTracker] = None
        # History rewrites and membership changes so far (knowledge_mark).
        self._rewrites = 0
        # The view of the current version (knowledge_view) and the memoised
        # snapshot, which carries the view of its version.
        self._view: Optional[IncrementalAnalysisView] = None
        self._ccp: Optional[CCP] = None
        self._sinks: List[TraceSink] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """Number of processes being traced."""
        return self._num_processes

    @property
    def log(self) -> EventLog:
        """The current event log (post-rollback history)."""
        return self._log

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every recorded event, recovery,
        join or leave."""
        return self._version

    @property
    def knowledge_tracker(self) -> Optional[CheckpointKnowledgeTracker]:
        """The maintained checkpoint-knowledge state (None until first needed)."""
        return self._tracker

    @property
    def checkpoints_taken(self) -> Tuple[int, ...]:
        """Per-process count of stable checkpoints taken (volatile index)."""
        return self._log.checkpoints_taken()

    @property
    def membership(self) -> MembershipView:
        """The membership state threaded through this recorder."""
        return self._membership

    @property
    def departed(self) -> FrozenSet[int]:
        """Pids that permanently left the membership."""
        return self._membership.departed

    def recorded_checkpoint_dvs(self) -> Dict[CheckpointId, Tuple[int, ...]]:
        """Dependency vectors stored with the currently existing stable checkpoints."""
        return {
            tuple.__new__(CheckpointId, cid): dv for cid, dv in self._recorded_dvs.items()
        }

    # ------------------------------------------------------------------
    # Persistence sinks
    # ------------------------------------------------------------------
    def attach_sink(self, sink: TraceSink) -> None:
        """Forward every subsequently recorded occurrence to ``sink``.

        Sinks attached mid-run only observe the suffix; attach before the
        first event, or once the sink holds every earlier occurrence (the
        simulation runner, at the first read), to capture a replayable trace.
        """
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_send(
        self, sender: int, receiver: int, message_id: int, time: float
    ) -> None:
        """Record the sending of an application message."""
        if sender not in self._members:
            raise self._not_a_member(sender)
        self._log.add_send(sender, receiver, message_id=message_id, time=time)
        if self._tracker is not None:
            self._tracker.note_send(message_id, sender)
        self._version += 1
        for sink in self._sinks:
            sink.on_send(sender, receiver, message_id, time)

    def record_receive(self, message_id: int, time: float) -> None:
        """Record the delivery of an application message.

        Deliveries of messages the log does not know — never sent, or whose
        send a recovery session erased — are ignored (the runner prevents the
        latter anyway by dropping in-flight messages, so this is a
        belt-and-braces guard).
        """
        try:
            event = self._log.add_receive(message_id, time=time)
        except ValueError:
            if self._log.has_message(message_id):
                raise  # received twice
            return  # never sent, as far as this log knows
        if self._tracker is not None:
            self._tracker.note_receive(message_id, event[E_PID], event[E_SEQ])
        self._version += 1
        for sink in self._sinks:
            sink.on_receive(message_id, time)

    def record_duplicate_receive(self, message_id: int, time: float) -> None:
        """Record the delivery of a *duplicate* copy of a received message.

        A duplicate carries a piggyback the receiver has already absorbed
        (the network delivers whichever copy arrives first as the real
        receive), so it contributes **no** causal dependency: it is recorded
        as an internal event at the receiver — the event exists (the
        protocol may have acted on it) but adds no edge to the CCP.  The
        :class:`repro.causality.events.EventLog` invariant that every
        message is received at most once is thereby preserved.
        """
        if not self._log.has_message(message_id):
            return  # never sent, or its send erased by a recovery session
        message = self._log.message(message_id)
        if message[M_RECEIVE_SEQ] < 0:
            raise ValueError(
                f"duplicate delivery of message {message_id} before its first receive"
            )
        self._log.add_internal(message[M_RECEIVER], time=time)
        self._version += 1
        for sink in self._sinks:
            sink.on_duplicate_receive(message_id, time)

    def record_checkpoint(
        self,
        pid: int,
        index: int,
        dependency_vector: Sequence[int],
        *,
        forced: bool,
        time: float,
        exact_ints: bool = False,
    ) -> None:
        """Record a stable checkpoint and the vector stored with it.

        The one door through which a stored vector enters the recorder.  Its
        entries are taken from the recorder's value table, so each distinct
        entry value is one int object however many vectors hold it.  Only a
        vector of exact ints goes through the table (``True`` and ``1.0``
        hash and compare equal to ``1``): any other is stored as given.
        ``exact_ints`` says the caller has already checked every entry's type
        (the trace record applier does), so the vector is not scanned again.
        """
        if pid not in self._members:
            raise self._not_a_member(pid)
        event = self._log.add_checkpoint(pid, index, time=time, forced=forced)
        if exact_ints or _INTS.issuperset(map(type, dependency_vector)):
            stored = tuple(map(self._values.setdefault, dependency_vector, dependency_vector))
        else:
            stored = tuple(dependency_vector)
        self._recorded_dvs[(pid, index)] = stored
        if self._tracker is not None:
            self._tracker.note_checkpoint(pid, index, event[E_SEQ])
        self._version += 1
        for sink in self._sinks:
            sink.on_checkpoint(pid, index, dependency_vector, forced=forced, time=time)

    def record_internal(self, pid: int, time: float) -> None:
        """Record an internal application event (used by scripted scenarios)."""
        if pid not in self._members:
            raise self._not_a_member(pid)
        self._log.add_internal(pid, time=time)
        self._version += 1
        for sink in self._sinks:
            sink.on_internal(pid, time)

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------
    def _not_a_member(self, pid: int) -> MembershipError:
        """The refusal of an event originated by ``pid``, which is not a member."""
        state = "departed" if pid in self._membership.departed else (
            "dormant (not yet joined)"
            if 0 <= pid < self._num_processes
            else "outside the capacity"
        )
        return MembershipError(
            f"process {pid} is {state} and cannot originate events "
            f"(capacity {self._num_processes})"
        )

    def record_join(self, pid: int, time: float) -> None:
        """Record a process joining the membership.

        A dormant pid within the capacity becomes live.  Joining a pid at or
        beyond the capacity, an already-live or a departed one raises
        :class:`~repro.membership.MembershipError`.
        """
        self._membership.join(pid)
        self._version += 1
        self._rewrites += 1
        for sink in self._sinks:
            sink.on_join(pid, time)

    def record_leave(self, pid: int, time: float) -> None:
        """Record a process leaving the membership permanently.

        From this point the pid is excluded from every analysis: it cannot
        be faulty, recovery lines pin it to its volatile index, and all its
        checkpoints are obsolete (the collectors eliminate them at
        departure).  Leaving a non-member raises
        :class:`~repro.membership.MembershipError`.
        """
        self._membership.leave(pid)
        self._version += 1
        self._rewrites += 1
        for sink in self._sinks:
            sink.on_leave(pid, time)

    def _checkpoint_seq(self, pid: int, index: int) -> int:
        """Position of the CHECKPOINT event of ``s_pid^index`` (IndexError if not in the log)."""
        if index < 0:
            raise IndexError(index)
        return self._log.history(pid).checkpoints[index][E_SEQ]

    # ------------------------------------------------------------------
    # Recovery sessions
    # ------------------------------------------------------------------
    def apply_recovery(self, plan: RollbackPlan) -> None:
        """Truncate the recorded history at the recovery line of ``plan``.

        Everything is repaired from the discarded suffixes: only there can a
        message lose its send (dropped) or its receive (pending again — the
        log's :meth:`~repro.causality.events.EventLog.prefix` sees to both),
        and only there do checkpoints disappear.
        """
        lengths = [len(self._log.history(pid)) for pid in range(self._num_processes)]
        for rollback in plan.rollbacks:
            try:
                cutoff = self._checkpoint_seq(rollback.pid, rollback.rollback_index)
            except IndexError:
                raise RuntimeError(
                    f"recovery line references checkpoint "
                    f"s{rollback.pid}^{rollback.rollback_index} which is not in the trace"
                ) from None
            lengths[rollback.pid] = cutoff + 1
        newly_dropped: List[int] = []
        stale: List[Tuple[int, int]] = []
        for rollback in plan.rollbacks:
            pid = rollback.pid
            for event in self._log.history(pid).events[lengths[pid]:]:
                if event[E_KIND] == SEND:
                    newly_dropped.append(event[E_MESSAGE_ID])
                elif event[E_KIND] == CHECKPOINT:
                    stale.append((pid, event[E_CHECKPOINT_INDEX]))
        if stale:
            # A new map, not an in-place delete: snapshots share the old one.
            self._recorded_dvs = dict(self._recorded_dvs)
            for cid in stale:
                del self._recorded_dvs[cid]
        # A kept receive of a message whose send is discarded becomes a
        # placeholder (a Lemma-1 line of a non-RDT pattern can cut so).  What
        # that receive merged has spread past any journal cut, so the tracker
        # goes and the next read rebuilds it from the repaired log.
        if self._tracker is not None and any(
            0 <= (message := self._log.message(message_id))[M_RECEIVE_SEQ]
            < lengths[message[M_RECEIVER]]
            for message_id in newly_dropped
        ):
            self._tracker = None
        # A new log, not an in-place cut: CCPs already handed out keep the
        # pre-crash history (the recovery oracles judge the line against it).
        self._log = self._log.prefix(lengths)
        if self._tracker is not None:
            self._tracker.apply_truncation(lengths)
            self._tracker.forget_messages(newly_dropped)
            self._tracker.forget_checkpoints(self.checkpoints_taken)
        self._version += 1
        self._rewrites += 1
        for sink in self._sinks:
            sink.on_recovery(plan)

    def _tracked(self) -> CheckpointKnowledgeTracker:
        """The knowledge tracker, born now by a catch-up if it does not exist."""
        if self._tracker is None:
            self._tracker = self._catch_up_tracker()
        return self._tracker

    def _catch_up_tracker(self) -> CheckpointKnowledgeTracker:
        """Build the knowledge tracker by one causal-order replay of the log."""
        tracker = CheckpointKnowledgeTracker(self._num_processes)
        for pid, seq, kind, message_id, index, _, _ in self._log.causal_replay():
            if kind == SEND:
                tracker.note_send(message_id, pid)
            elif kind == RECEIVE:
                tracker.note_receive(message_id, pid, seq)
            elif kind == CHECKPOINT:
                tracker.note_checkpoint(pid, index, seq)
        return tracker

    # ------------------------------------------------------------------
    # Analysis snapshots
    # ------------------------------------------------------------------
    def knowledge_view(self) -> IncrementalAnalysisView:
        """The knowledge view of the execution recorded so far.

        The same object while :attr:`version` is unchanged, and the one
        :meth:`ccp` hands every pattern of this version as
        ``analysis_provider``: its memoised answers are shared by everyone
        who asks.  Like every view, it refuses to answer once the recorded
        execution moves on.

        The recorder holds the view it hands out; the view holds the
        tracker, log and membership it reads and only a weak reference back
        to the recorder, so the memo is no cycle: a recorder nobody holds is
        freed by reference counting, and a view that outlives it still
        answers.
        """
        if self._view is None or self._view.version != self._version:
            self._view = IncrementalAnalysisView(self, self._tracked())
        return self._view

    def knowledge_mark(self) -> Tuple[int, ...]:
        """A mark of the knowledge state now, for :meth:`knowledge_changed_since`.

        Taken before the first event, it makes the tracker exist from that
        event on.
        """
        # A process's journal gains an entry exactly when its knowledge
        # vector or its checkpoint rows change, and loses entries only in a
        # rewrite; the rewrite count guards that.
        return (self._rewrites, *map(len, self._tracked().journal))

    def knowledge_changed_since(self, mark: Tuple[int, ...]) -> Optional[FrozenSet[int]]:
        """The pids whose knowledge (vector or checkpoint rows) changed since ``mark``.

        ``None`` when a recovery session, a join or a leave happened in
        between: history was rewritten (or the set of
        processes the analyses range over changed), so no per-process
        answer describes the difference.
        """
        now = self.knowledge_mark()
        if now[0] != mark[0]:
            return None
        return frozenset(
            pid for pid, (before, after) in enumerate(zip(mark[1:], now[1:])) if before != after
        )

    def ccp(self) -> CCP:
        """The CCP of the recorded execution.

        While the recorded execution does not change between calls, the same
        CCP object is returned (and with it the same zigzag kernel); it
        carries this version's :meth:`knowledge_view`.  It shares the log and
        the stored-vector map with the recorder: recording appends to both,
        beyond what the snapshot's checkpoints reach, and a recovery session
        rebinds both, so neither is copied.

        The recorder holds the CCP it hands out; the CCP holds the log, the
        map and the view, and only the view refers back to the recorder,
        weakly.  So the memo keeps no recorder alive, and a CCP that
        outlives its recorder answers as before.
        """
        ccp = self._ccp
        if ccp is None or ccp.analysis_provider.version != self._version:
            ccp = self._ccp = CCP(
                self._log,
                recorded_dvs=self._recorded_dvs,
                analysis_provider=self.knowledge_view(),
                departed=self._membership.departed,
            )
        return ccp
