"""The Checkpoint and Communication Pattern (CCP).

A CCP is "the set of all checkpoints taken by all the processes in a
consistent cut and the dependency relation between them created by the
exchanged messages (excluding lost and in-transit messages)" (Section 2.2).

The :class:`CCP` class is a snapshot of a recorder's
:class:`repro.causality.EventLog` (a :class:`~repro.simulation.trace.TraceRecorder`
hands it out, and the :class:`~repro.ccp.builder.CCPBuilder` records into one)
and offers the checkpoint-level queries used by the rest of the library:

* stable and volatile (general) checkpoints, ``last_s(i)``;
* checkpoint-level causal precedence (ground truth, computed from the event
  graph rather than from piggybacked vectors);
* per-checkpoint ground-truth dependency vectors, which — for RDT executions —
  coincide with the vectors an RDT protocol piggybacks (Equation 2);
* the delivered messages with their send/receive intervals, as needed by the
  zigzag-path analysis (the log's own message records, read through the
  ``M_*`` positions of :mod:`repro.causality.events`: the intervals are
  stamped when the events are recorded).

The Theorem-1/2 retained sets and the Lemma-1 recovery lines are not computed
here: every pattern carries the recorder's knowledge view as its
``analysis_provider``, which answers and memoises them.  The pattern owns its
zigzag kernel (:attr:`CCP.zigzag`).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.causality.events import (
    E_FORCED,
    E_PID,
    E_SEQ,
    E_TIME,
    M_RECEIVE_SEQ,
    EventId,
    EventLog,
    EventRecord,
    MessageRecord,
)
from repro.causality.happens_before import CausalOrder
from repro.ccp.checkpoint import Checkpoint, CheckpointId, CheckpointKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.incremental import IncrementalAnalysisView
    from repro.ccp.zigzag import ZigzagAnalysis


_event_seq = itemgetter(E_SEQ)


class CCP:
    """A checkpoint and communication pattern over a recorded execution."""

    def __init__(
        self,
        log: EventLog,
        *,
        recorded_dvs: Optional[Mapping[Tuple[int, int], Sequence[int]]] = None,
        analysis_provider: "IncrementalAnalysisView",
        departed: Iterable[int] = (),
    ) -> None:
        """Build the CCP of the full recorded execution.

        Parameters
        ----------
        log:
            The execution.  It must be causally replayable (every receive has a
            send).
        recorded_dvs:
            Dependency vectors the checkpointing middleware stored with the
            stable checkpoints, keyed by checkpoint id (a :class:`CheckpointId`
            or the plain ``(pid, index)`` tuple it equals).  The map is kept,
            not copied: its owner may add keys beyond this pattern's
            checkpoints but must not change or delete one (the recorder
            rebinds its map on a recovery session).  Ground-truth vectors
            are available through :meth:`ground_truth_dv`; a volatile
            checkpoint has no recorded vector.
        analysis_provider:
            The knowledge view of the recorder that owns ``log`` (see
            :mod:`repro.ccp.incremental`): it answers the Theorem-1/2
            retained sets and the recovery lines of this pattern.
        departed:
            Pids that left the membership before this cut.  A departed
            process can never be faulty again, so the analyses exclude it
            on both sides: its checkpoints pin nothing, and nothing pins
            them (they are all obsolete — the garbage-of-departed
            invariant).
        """
        self._log = log
        # Built on the first event-level precedence query: analyses served
        # by a provider never pay for the vector-clock replay.
        self._lazy_order: Optional[CausalOrder] = None
        self._provider = analysis_provider
        self._departed = frozenset(departed)
        self._recorded_dvs = {} if recorded_dvs is None else recorded_dvs

        self._stable_events: List[List[EventRecord]] = [
            log.history(pid).checkpoint_events() for pid in log.processes
        ]
        # Checkpoint records are materialised on first access: an audit or a
        # recovery-line query over a long run touches a handful of them.
        self._checkpoints: Dict[CheckpointId, Checkpoint] = {}
        self._ground_truth_dvs: Dict[CheckpointId, Tuple[int, ...]] = {}
        self._zigzag: Optional["ZigzagAnalysis"] = None
        # The registry as of now (the log may keep growing); filtered and
        # ordered by message id on first use (see messages()): audits and
        # recovery lines never look at the messages.
        self._registry: Optional[List[MessageRecord]] = log.messages()
        self._messages: List[MessageRecord] = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stable_event(self, cid: CheckpointId) -> Optional[EventRecord]:
        """The CHECKPOINT record of ``cid``: None for the volatile, KeyError if absent."""
        if cid.pid in self._log.processes:
            events = self._stable_events[cid.pid]
            # Every history records its checkpoints from index 0 on.
            if 0 <= cid.index < len(events):
                return events[cid.index]
            if cid.index == len(events):
                return None
        raise KeyError(f"checkpoint {cid} is not part of this CCP")

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def log(self) -> EventLog:
        """The underlying event log."""
        return self._log

    @property
    def causal_order(self) -> CausalOrder:
        """The event-level causal order of the execution (built on demand)."""
        if self._lazy_order is None:
            self._lazy_order = CausalOrder(self._log)
        return self._lazy_order

    @property
    def analysis_provider(self) -> "IncrementalAnalysisView":
        """The recorder's knowledge view this pattern's analyses are served from."""
        return self._provider

    @property
    def zigzag(self) -> "ZigzagAnalysis":
        """The bitset zigzag kernel of this pattern, built on first use."""
        if self._zigzag is None:
            from repro.ccp.zigzag import ZigzagAnalysis

            self._zigzag = ZigzagAnalysis(self)
        return self._zigzag

    @property
    def num_processes(self) -> int:
        """Number of processes in the pattern."""
        return self._log.num_processes

    @property
    def processes(self) -> range:
        """Process ids ``0 .. n-1``."""
        return self._log.processes

    @property
    def departed(self) -> FrozenSet[int]:
        """Pids that left the membership before this cut."""
        return self._departed

    @property
    def active_processes(self) -> List[int]:
        """Process ids that have not departed (dormant joiners included)."""
        if not self._departed:
            return list(self._log.processes)
        return [pid for pid in self._log.processes if pid not in self._departed]

    def last_stable(self, pid: int) -> int:
        """``last_s(pid)``: index of the last stable checkpoint, or -1 if none."""
        return len(self._stable_events[pid]) - 1

    def volatile_index(self, pid: int) -> int:
        """Index of the volatile (general) checkpoint ``v_pid``."""
        return self.last_stable(pid) + 1

    def last_stable_id(self, pid: int) -> CheckpointId:
        """``s_pid^last`` as a :class:`CheckpointId` (requires at least one stable)."""
        last = self.last_stable(pid)
        if last < 0:
            raise ValueError(f"process {pid} has no stable checkpoint in this CCP")
        return CheckpointId(pid, last)

    def volatile_id(self, pid: int) -> CheckpointId:
        """The volatile checkpoint ``v_pid`` as a :class:`CheckpointId`."""
        return CheckpointId(pid, self.volatile_index(pid))

    def stable_ids(self, pid: int) -> List[CheckpointId]:
        """All stable checkpoint ids of ``pid``, in index order."""
        return [CheckpointId(pid, index) for index in range(len(self._stable_events[pid]))]

    def general_ids(self, pid: int) -> List[CheckpointId]:
        """All general checkpoint ids of ``pid`` (stable then volatile)."""
        return self.stable_ids(pid) + [self.volatile_id(pid)]

    def all_checkpoints(self) -> List[Checkpoint]:
        """Every checkpoint (stable and volatile) of every process."""
        result: List[Checkpoint] = []
        for pid in self.processes:
            result.extend(self.checkpoint(cid) for cid in self.general_ids(pid))
        return result

    def has_checkpoint(self, cid: CheckpointId) -> bool:
        """True if ``cid`` exists in this pattern."""
        try:
            self._stable_event(cid)
        except KeyError:
            return False
        return True

    def checkpoint(self, cid: CheckpointId) -> Checkpoint:
        """The :class:`Checkpoint` record for ``cid`` (KeyError if absent)."""
        checkpoint = self._checkpoints.get(cid)
        if checkpoint is None:
            event = self._stable_event(cid)
            if event is None:
                checkpoint = Checkpoint(
                    pid=cid.pid,
                    index=cid.index,
                    kind=CheckpointKind.VOLATILE,
                    dependency_vector=None,
                    event_seq=None,
                )
            else:
                recorded = self._recorded_dvs.get(cid)
                checkpoint = Checkpoint(
                    pid=cid.pid,
                    index=cid.index,
                    kind=CheckpointKind.STABLE,
                    dependency_vector=None if recorded is None else tuple(recorded),
                    event_seq=event[E_SEQ],
                    forced=event[E_FORCED],
                    time=event[E_TIME],
                )
            self._checkpoints[cid] = checkpoint
        return checkpoint

    def is_stable(self, cid: CheckpointId) -> bool:
        """True if ``cid`` denotes a stable checkpoint of this pattern."""
        return self.has_checkpoint(cid) and self.checkpoint(cid).is_stable

    def is_volatile(self, cid: CheckpointId) -> bool:
        """True if ``cid`` denotes the volatile checkpoint of its process."""
        return self.has_checkpoint(cid) and self.checkpoint(cid).is_volatile

    def total_stable_checkpoints(self) -> int:
        """Total number of stable checkpoints across all processes."""
        return sum(len(self._stable_events[pid]) for pid in self.processes)

    # ------------------------------------------------------------------
    # Intervals
    # ------------------------------------------------------------------
    def interval_of_event(self, event: Sequence) -> int:
        """The checkpoint interval ``I_pid^gamma`` an event belongs to.

        ``I_i^gamma`` spans from ``c_i^{gamma-1}`` (inclusive) to ``c_i^gamma``
        (exclusive), so an event's interval is one more than the index of the
        last checkpoint taken at or before it.
        """
        return bisect_right(self._stable_events[event[E_PID]], event[E_SEQ], key=_event_seq)

    def messages(self) -> List[MessageRecord]:
        """Records of the delivered messages, by message id."""
        if self._registry is not None:
            self._messages = sorted(m for m in self._registry if m[M_RECEIVE_SEQ] >= 0)
            self._registry = None
        return list(self._messages)

    # ------------------------------------------------------------------
    # Checkpoint-level causal precedence (ground truth)
    # ------------------------------------------------------------------
    def causally_precedes(self, first: CheckpointId, second: CheckpointId) -> bool:
        """True iff general checkpoint ``first`` causally precedes ``second``.

        Stable checkpoints are anchored at their CHECKPOINT event; the volatile
        checkpoint of a process is anchored after the last event of that
        process.  The volatile checkpoint therefore never precedes anything,
        and is preceded by everything in the causal past of its process's last
        event (including all of the process's own checkpoints).
        """
        first_cp = self.checkpoint(first)
        second_cp = self.checkpoint(second)
        if first == second:
            return False
        if first_cp.is_volatile:
            return False
        assert first_cp.event_seq is not None
        first_event = EventId(first.pid, first_cp.event_seq)
        if second_cp.is_stable:
            assert second_cp.event_seq is not None
            second_event = EventId(second.pid, second_cp.event_seq)
            if first.pid == second.pid:
                return first.index < second.index
            return self.causal_order.precedes(first_event, second_event)
        # second is volatile: anchored after the last event of its process.
        if first.pid == second.pid:
            return True
        length = len(self._log.history(second.pid))
        if length == 0:
            return False
        last_event = EventId(second.pid, length - 1)
        return first_event == last_event or self.causal_order.precedes(first_event, last_event)

    def consistent(self, first: CheckpointId, second: CheckpointId) -> bool:
        """Two checkpoints are consistent iff neither causally precedes the other."""
        return not self.causally_precedes(first, second) and not self.causally_precedes(
            second, first
        )

    # ------------------------------------------------------------------
    # Dependency vectors
    # ------------------------------------------------------------------
    def ground_truth_dv(self, cid: CheckpointId) -> Tuple[int, ...]:
        """The transitive dependency vector implied by the event graph.

        Entry ``a`` is one more than the index of the latest checkpoint of
        ``p_a`` that causally precedes ``cid`` (0 if none).  For executions
        driven by an RDT protocol this equals the vector the protocol stored
        with the checkpoint (Equation 2), which tests verify.
        """
        self.checkpoint(cid)  # KeyError unless part of this CCP
        cached = self._ground_truth_dvs.get(cid)
        if cached is not None:
            return cached
        entries = [0] * self.num_processes
        for pid in self.processes:
            best = -1
            for other in self.stable_ids(pid):
                if other == cid:
                    continue
                if self.causally_precedes(other, cid):
                    best = max(best, other.index)
            entries[pid] = best + 1
        result = tuple(entries)
        self._ground_truth_dvs[cid] = result
        return result

    def dv(self, cid: CheckpointId) -> Tuple[int, ...]:
        """The dependency vector of ``cid``: the stored one of a stable
        checkpoint if recorded, else (a volatile checkpoint's too) ground truth."""
        recorded = self.checkpoint(cid).dependency_vector
        if recorded is not None:
            return recorded
        return self.ground_truth_dv(cid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CCP(processes={self.num_processes}, "
            f"stable={self.total_stable_checkpoints()}, "
            f"messages={len(self.messages())})"
        )
