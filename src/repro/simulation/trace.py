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
delivered and in which intervals is read from the log's one
:class:`repro.causality.events.Message` record per message.  :meth:`ccp`
memoises the built pattern keyed on a mutation version: while no new event
arrives, every caller receives the *same* CCP object and with it the same
shared :class:`repro.ccp.analysis_cache.AnalysisCache`.

:meth:`ccp` is the only gate to analysis, and every snapshot it hands out
carries an :class:`repro.ccp.incremental.IncrementalAnalysisView` as its
``analysis_provider``: retained sets and recovery lines are answered from a
:class:`repro.ccp.incremental.CheckpointKnowledgeTracker` by bisection, with
no vector-clock replay unless a caller asks for event-level precedence.  The
tracker has one lifecycle: it is born by one causal-order replay of the
current log at the first :meth:`ccp` or immediately before the first
compaction, whichever comes first (the log is whole at both instants, so the
catch-up is exact), and the ``record_*`` methods keep it current in O(P) per
event from then on.  A run that asks for no analysis and compacts nothing
does no per-event analysis work — and under the simulator such a run does
not reach the recorder at all until somebody reads it: the
:class:`~repro.simulation.runner.SimulationRunner` keeps its nodes'
occurrences and applies them, through these same ``record_*`` calls and in
arrival order, at the first read (``runner.trace``, a ``ccp()``, a recovery
session, a join or leave).  The recorder has one recording path and cannot
tell the difference, except in time.

A driver that feeds the recorder the obsolescence decisions collectors emit
(:meth:`record_elimination`) lets it *compact*: once a contiguous prefix of a
process's checkpoints is garbage, the corresponding checkpoint intervals are
cut out of the event log (:meth:`maybe_prune`), bounding the recorder's
memory by the live checkpoint frontier instead of run length.  Pruning
weakens the cut to a *send-closed consistent* one first, which is exactly
what keeps the zigzag relation of every retained checkpoint intact; receives
of pruned sends that arrive later are recorded as INTERNAL events (their
knowledge merge still happens, so Theorem-2 state stays exact).  A compacted
log has lost the edges a catch-up replay would need, so from the first
compaction on the maintained knowledge state is the only authoritative one.

Recovery sessions rewrite history: the post-rollback state of the system is the
recovery-line cut, so :meth:`apply_recovery` truncates each rolled-back
process's history at its recovery-line component (the resulting prefix is a
consistent cut because the recovery line is consistent);
:meth:`repro.causality.events.EventLog.prefix` repairs the message records
from the discarded suffixes alone — a session costs what it rolled back, not
the length of the run.

Persistence: the recorder accepts :class:`TraceSink` observers
(:meth:`attach_sink`).  Every successfully recorded occurrence — including
recovery sessions, which replay needs to reproduce the history truncation —
is forwarded to each sink in recording order, which is how
:class:`repro.traceio.writer.TraceWriter` turns a live run into a durable,
replayable artifact without the recorder knowing anything about files.
Pruning is *not* an occurrence: sinks observe the full history, so traces
written from pruned runs remain complete and replayable.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.causality.events import EventKind, EventLog
from repro.ccp.checkpoint import CheckpointId
from repro.ccp.incremental import CheckpointKnowledgeTracker, IncrementalAnalysisView
from repro.ccp.pattern import CCP
from repro.membership import MembershipError, MembershipView
from repro.recovery.rollback_plan import RollbackPlan

#: Events that must be reclaimable before an unforced ``maybe_prune`` compacts.
PRUNE_THRESHOLD = 512


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
    """Records a simulated execution as an event log plus checkpoint vectors."""

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
        self._log = EventLog(num_processes)
        self._recorded_dvs: Dict[CheckpointId, Tuple[int, ...]] = {}
        self._dropped_messages: set[int] = set()
        # Incremental CCP substrate.
        self._version = 0
        # Born at the first ccp() or just before the first compaction,
        # whichever comes first (see _catch_up_tracker).
        self._tracker: Optional[CheckpointKnowledgeTracker] = None
        self._checkpoints_taken = [0] * num_processes
        # Obsolescence-driven pruning state: per pid, the eliminated indices
        # above its floor (holes the contiguous garbage prefix has not reached).
        self._eliminated: List[Set[int]] = [set() for _ in range(num_processes)]
        self._prune_floor: List[int] = [0] * num_processes
        self._pruned_pending: Dict[int, Tuple[int, int]] = {}
        self._pruned_delivered: Dict[int, int] = {}
        self._pruned_events = 0
        # Memoised snapshot: (version, volatile-DV fingerprint, CCP).
        self._ccp_cache: Optional[Tuple[int, object, CCP]] = None
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
        """The current event log (post-rollback, post-pruning history only)."""
        return self._log

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every recorded event, recovery or prune."""
        return self._version

    @property
    def pruned_events(self) -> int:
        """Total events compacted out of the log by pruning so far."""
        return self._pruned_events

    @property
    def knowledge_tracker(self) -> Optional[CheckpointKnowledgeTracker]:
        """The maintained checkpoint-knowledge state (None until first needed)."""
        return self._tracker

    @property
    def checkpoints_taken(self) -> Tuple[int, ...]:
        """Per-process count of stable checkpoints taken (volatile index)."""
        return tuple(self._checkpoints_taken)

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
        return dict(self._recorded_dvs)

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
        self._require_member(sender)
        self._log.add_send(sender, receiver, message_id=message_id, time=time)
        if self._tracker is not None:
            self._tracker.note_send(message_id, sender)
        self._version += 1
        for sink in self._sinks:
            sink.on_send(sender, receiver, message_id, time)

    def record_receive(self, message_id: int, time: float) -> None:
        """Record the delivery of an application message.

        Deliveries of messages whose send was erased by a recovery session are
        ignored (the runner prevents them anyway by dropping in-flight
        messages, so this is a belt-and-braces guard).  Deliveries of messages
        whose send interval was *pruned* as obsolete are recorded as INTERNAL
        events: the hand-off edge can only serve pruned checkpoints, but the
        knowledge the message carries still reaches the receiver.
        """
        if message_id in self._dropped_messages:
            return
        if message_id in self._pruned_pending:
            _, receiver = self._pruned_pending.pop(message_id)
            event = self._log.add_internal(receiver, time=time)
            assert self._tracker is not None
            self._tracker.note_receive(message_id, receiver, event.seq)
            self._tracker.forget_messages([message_id])
            self._pruned_delivered[message_id] = receiver
            self._version += 1
            for sink in self._sinks:
                sink.on_receive(message_id, time)
            return
        if not self._log.has_message(message_id):
            return
        event = self._log.add_receive(message_id, time=time)
        if self._tracker is not None:
            self._tracker.note_receive(message_id, event.pid, event.seq)
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
        if message_id in self._dropped_messages:
            return
        pruned_receiver = self._pruned_delivered.get(message_id)
        if pruned_receiver is not None:
            self._log.add_internal(pruned_receiver, time=time)
            self._version += 1
            for sink in self._sinks:
                sink.on_duplicate_receive(message_id, time)
            return
        if not self._log.has_message(message_id):
            return
        message = self._log.message(message_id)
        if not message.delivered:
            raise ValueError(
                f"duplicate delivery of message {message_id} before its first receive"
            )
        self._log.add_internal(message.receiver, time=time)
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
    ) -> None:
        """Record a stable checkpoint and the vector stored with it."""
        self._require_member(pid)
        event = self._log.add_checkpoint(pid, index, time=time, forced=forced)
        self._recorded_dvs[CheckpointId(pid, index)] = tuple(dependency_vector)
        self._checkpoints_taken[pid] = index + 1
        if self._tracker is not None:
            self._tracker.note_checkpoint(pid, index, event.seq)
        self._version += 1
        for sink in self._sinks:
            sink.on_checkpoint(pid, index, dependency_vector, forced=forced, time=time)

    def record_internal(self, pid: int, time: float) -> None:
        """Record an internal application event (used by scripted scenarios)."""
        self._log.add_internal(pid, time=time)
        self._version += 1
        for sink in self._sinks:
            sink.on_internal(pid, time)

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------
    def _require_member(self, pid: int) -> None:
        if not self._membership.is_member(pid):
            state = "departed" if pid in self._membership.departed else (
                "dormant (not yet joined)"
                if 0 <= pid < self._num_processes
                else "outside the capacity"
            )
            raise MembershipError(
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
        self._ccp_cache = None
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
        self._ccp_cache = None
        for sink in self._sinks:
            sink.on_leave(pid, time)

    # ------------------------------------------------------------------
    # Obsolescence-driven pruning
    # ------------------------------------------------------------------
    def record_elimination(self, pid: int, index: int) -> None:
        """Note that the collector of ``pid`` eliminated checkpoint ``index``.

        Advances the per-process prune floor over the contiguous garbage
        prefix and opportunistically compacts the log (:meth:`maybe_prune`).
        """
        if not 0 <= index < self._checkpoints_taken[pid]:
            raise ValueError(
                f"elimination of unknown checkpoint s{pid}^{index}"
            )
        if index < self._prune_floor[pid]:
            return  # already below the garbage frontier
        eliminated = self._eliminated[pid]
        eliminated.add(index)
        floor = self._prune_floor[pid]
        while floor in eliminated:
            eliminated.discard(floor)
            floor += 1
        self._prune_floor[pid] = floor
        self.maybe_prune()

    def _checkpoint_seq(self, pid: int, index: int) -> int:
        """Position of the CHECKPOINT event of ``s_pid^index`` (IndexError if not in the log)."""
        offset = index - self._log.checkpoint_base(pid)
        if offset < 0:
            raise IndexError(index)
        return self._log.history(pid).checkpoints[offset].seq

    def maybe_prune(self, *, force: bool = False) -> bool:
        """Compact obsolete checkpoint intervals out of the log.

        The candidate cut puts each process's base at its prune floor (the
        first non-garbage checkpoint), then weakens it to a *send-closed*
        fixpoint: a delivered message whose send survives must keep its
        receive, otherwise the receiver's base is lowered to just below the
        receive interval.  Send-closedness is exactly what preserves the
        zigzag relation of every checkpoint at or above the final bases —
        every hand-off chain reachable from a live checkpoint consists of
        surviving messages only.

        Pruning is skipped (returns False) while the reclaimable event count
        is below :data:`PRUNE_THRESHOLD`, unless ``force`` is given.
        """
        bases = self._log.checkpoint_bases
        desired: List[int] = []
        for pid in range(self._num_processes):
            last = self._checkpoints_taken[pid] - 1
            if last < 0:
                desired.append(bases[pid])
            else:
                desired.append(max(bases[pid], min(self._prune_floor[pid], last)))
        # Cheap upper bound on reclaimable events before paying for the fixpoint.
        upper = sum(
            self._checkpoint_seq(pid, d) if d > bases[pid] else 0
            for pid, d in enumerate(desired)
        )
        if upper == 0 or (not force and upper < PRUNE_THRESHOLD):
            return False
        cut = desired
        delivered = self._log.delivered_messages()
        changed = True
        while changed:
            changed = False
            for message in delivered:
                sender_cut = cut[message.sender] > bases[message.sender]
                send_kept = (
                    not sender_cut or message.send_interval > cut[message.sender]
                )
                if (
                    send_kept
                    and cut[message.receiver] > bases[message.receiver]
                    and message.receive_interval <= cut[message.receiver]
                ):
                    cut[message.receiver] = max(
                        bases[message.receiver], message.receive_interval - 1
                    )
                    changed = True
        starts = [
            self._checkpoint_seq(pid, cut[pid]) if cut[pid] > bases[pid] else 0
            for pid in range(self._num_processes)
        ]
        total = sum(starts)
        if total == 0 or (not force and total < PRUNE_THRESHOLD):
            return False
        self._perform_prune(cut, starts)
        return True

    def _perform_prune(self, cut: List[int], starts: List[int]) -> None:
        """Apply a computed send-closed cut: rewrite the log and remap state."""
        if self._tracker is None:
            # Last call: what the cut removes, no later replay can recover.
            self._tracker = self._catch_up_tracker()
        pruned_delivered: List[int] = []
        for message in self._log.messages():
            if message.send_seq < starts[message.sender]:
                if message.delivered:
                    pruned_delivered.append(message.message_id)
                    self._pruned_delivered[message.message_id] = message.receiver
                else:
                    self._pruned_pending[message.message_id] = (
                        message.sender,
                        message.receiver,
                    )
        self._log = self._log.suffix(starts, checkpoint_bases=cut)
        stale_cids = [
            cid for cid in self._recorded_dvs if cid.index < cut[cid.pid]
        ]
        for cid in stale_cids:
            del self._recorded_dvs[cid]
        self._tracker.apply_suffix(starts)
        self._tracker.forget_checkpoints(cut, self._checkpoints_taken)
        self._tracker.forget_messages(pruned_delivered)
        self._pruned_events += sum(starts)
        self._ccp_cache = None
        self._version += 1

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
        stale: List[CheckpointId] = []
        for rollback in plan.rollbacks:
            pid = rollback.pid
            for event in self._log.history(pid).events[lengths[pid]:]:
                if event.kind is EventKind.SEND:
                    assert event.message_id is not None
                    newly_dropped.append(event.message_id)
                elif event.kind is EventKind.CHECKPOINT:
                    assert event.checkpoint_index is not None
                    stale.append(CheckpointId(pid, event.checkpoint_index))
            self._checkpoints_taken[pid] = rollback.rollback_index + 1
            # Rolled-back checkpoint indices are *reused* after recovery
            # (stable storage rewinds its next index), so elimination facts
            # recorded for the discarded incarnations must not survive to
            # taint their successors.
            self._eliminated[pid] = {
                index for index in self._eliminated[pid] if index <= rollback.rollback_index
            }
            self._prune_floor[pid] = min(
                self._prune_floor[pid], rollback.rollback_index
            )
        self._dropped_messages.update(newly_dropped)
        for cid in stale:
            del self._recorded_dvs[cid]
        if self._tracker is not None:
            self._tracker.apply_truncation(lengths)
            self._tracker.forget_messages(newly_dropped)
            self._tracker.forget_checkpoints(self._log.checkpoint_bases, self._checkpoints_taken)
        # A new log, not an in-place cut: CCPs already handed out keep the
        # pre-crash history (the recovery oracles judge the line against it).
        self._log = self._log.prefix(lengths)
        self._ccp_cache = None
        self._version += 1
        for sink in self._sinks:
            sink.on_recovery(plan)

    def _catch_up_tracker(self) -> CheckpointKnowledgeTracker:
        """Build the knowledge tracker by one causal-order replay of the log."""
        tracker = CheckpointKnowledgeTracker(self._num_processes)
        for event in self._log.causal_replay():
            if event.kind is EventKind.SEND:
                assert event.message_id is not None
                tracker.note_send(event.message_id, event.pid)
            elif event.kind is EventKind.RECEIVE:
                assert event.message_id is not None
                tracker.note_receive(event.message_id, event.pid, event.seq)
            elif event.kind is EventKind.CHECKPOINT:
                assert event.checkpoint_index is not None
                tracker.note_checkpoint(event.pid, event.checkpoint_index, event.seq)
        return tracker

    # ------------------------------------------------------------------
    # Analysis snapshots
    # ------------------------------------------------------------------
    def ccp(
        self, volatile_dvs: Optional[Mapping[int, Sequence[int]]] = None
    ) -> CCP:
        """The CCP of the recorded execution.

        ``volatile_dvs`` optionally supplies the processes' current dependency
        vectors so that the volatile checkpoints carry recorded (rather than
        only ground-truth) vectors.

        While the recorded execution does not change between calls, the same
        CCP object is returned, so its attached analysis cache (zigzag kernel,
        Theorem-1/2 retained sets, recovery lines) is shared across callers.
        """
        fingerprint = (
            None
            if volatile_dvs is None
            else tuple(sorted((pid, tuple(dv)) for pid, dv in volatile_dvs.items()))
        )
        if self._ccp_cache is not None:
            version, cached_fingerprint, cached = self._ccp_cache
            if version == self._version and cached_fingerprint == fingerprint:
                return cached
        recorded: Dict[CheckpointId, Tuple[int, ...]] = dict(self._recorded_dvs)
        if volatile_dvs is not None:
            for pid, dv in volatile_dvs.items():
                recorded[CheckpointId(pid, self._checkpoints_taken[pid])] = tuple(dv)
        if self._tracker is None:
            self._tracker = self._catch_up_tracker()
        ccp = CCP(
            self._log,
            recorded_dvs=recorded,
            analysis_provider=IncrementalAnalysisView(self),
            departed=self._membership.departed,
        )
        self._ccp_cache = (self._version, fingerprint, ccp)
        return ccp
