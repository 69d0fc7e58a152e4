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
  zigzag-path analysis (the log's own :class:`~repro.causality.events.Message`
  records: the intervals are stamped when the events are recorded).

The Theorem-1/2 retained sets and the Lemma-1 recovery lines are not computed
here: every pattern carries the recorder's knowledge view as its
``analysis_provider``, and the shared analysis cache asks it.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
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

from repro.causality.events import Event, EventId, EventLog, Message
from repro.causality.happens_before import CausalOrder
from repro.ccp.checkpoint import Checkpoint, CheckpointId, CheckpointKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.analysis_cache import AnalysisCache
    from repro.ccp.incremental import IncrementalAnalysisView


_event_seq = attrgetter("seq")


class CCP:
    """A checkpoint and communication pattern over a recorded execution."""

    def __init__(
        self,
        log: EventLog,
        *,
        recorded_dvs: Optional[Mapping[CheckpointId, Sequence[int]]] = None,
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
            Dependency vectors recorded by the checkpointing middleware, keyed
            by checkpoint id.  When present they are attached to the
            corresponding :class:`Checkpoint` records; ground-truth vectors are
            still available through :meth:`ground_truth_dv`.
        analysis_provider:
            The knowledge view of the recorder that owns ``log`` (see
            :mod:`repro.ccp.incremental`): the
            :class:`~repro.ccp.analysis_cache.AnalysisCache` serves Theorem-1/2
            retained sets and recovery lines from it.
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
        self._recorded_dvs = dict(recorded_dvs) if recorded_dvs else {}

        self._stable_events: List[List[Event]] = [
            log.history(pid).checkpoint_events() for pid in log.processes
        ]
        # Checkpoint records are materialised on first access: an audit or a
        # recovery-line query over a long run touches a handful of them.
        self._checkpoints: Dict[CheckpointId, Checkpoint] = {}
        self._ground_truth_dvs: Dict[CheckpointId, Tuple[int, ...]] = {}
        self._analyses: Optional["AnalysisCache"] = None
        # The registry as of now (the log may keep growing); filtered and
        # ordered by message id on first use (see messages()): audits and
        # recovery lines never look at the messages.
        self._registry: Optional[List[Message]] = log.messages()
        self._messages: List[Message] = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stable_event(self, cid: CheckpointId) -> Optional[Event]:
        """The CHECKPOINT event of ``cid``: None for the volatile, KeyError if absent."""
        if cid.pid in self._log.processes:
            events = self._stable_events[cid.pid]
            # Indices are contiguous from the first recorded checkpoint on.
            first = events[0].checkpoint_index if events else 0
            assert first is not None
            if first <= cid.index < first + len(events):
                return events[cid.index - first]
            if cid.index == first + len(events):
                return None
        raise KeyError(f"checkpoint {cid} is not part of this CCP")

    def _recorded_or_none(self, cid: CheckpointId) -> Optional[Tuple[int, ...]]:
        recorded = self._recorded_dvs.get(cid)
        return tuple(recorded) if recorded is not None else None

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

    def base_interval(self, pid: int) -> int:
        """The first checkpoint interval of ``pid`` retained in this pattern.

        0 for full records; for pruned logs this is the log's checkpoint base
        — no event of ``pid`` belongs to an earlier interval, which lets the
        zigzag kernel size its bitsets by the live window.
        """
        return self._log.checkpoint_base(pid)

    def last_stable(self, pid: int) -> int:
        """``last_s(pid)``: index of the last stable checkpoint, or -1 if none."""
        events = self._stable_events[pid]
        if not events:
            return -1
        index = events[-1].checkpoint_index
        assert index is not None
        return index

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
        events = self._stable_events[pid]
        return [CheckpointId(pid, e.checkpoint_index) for e in events]  # type: ignore[arg-type]

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
                    dependency_vector=self._recorded_or_none(cid),
                    event_seq=None,
                )
            else:
                checkpoint = Checkpoint(
                    pid=cid.pid,
                    index=cid.index,
                    kind=CheckpointKind.STABLE,
                    dependency_vector=self._recorded_or_none(cid),
                    event_seq=event.seq,
                    forced=event.forced,
                    time=event.time,
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
    def interval_of_event(self, event: Event | EventId) -> int:
        """The checkpoint interval ``I_pid^gamma`` an event belongs to.

        ``I_i^gamma`` spans from ``c_i^{gamma-1}`` (inclusive) to ``c_i^gamma``
        (exclusive), so an event's interval is one more than the index of the
        last checkpoint taken at or before it.
        """
        checkpoints = self._stable_events[event.pid]
        taken = bisect_right(checkpoints, event.seq, key=_event_seq)
        return self._log.checkpoint_base(event.pid) + taken

    def messages(self) -> List[Message]:
        """Delivered messages with their send/receive intervals, by message id."""
        if self._registry is not None:
            self._messages = sorted(m for m in self._registry if m.delivered)
            self._registry = None
        return list(self._messages)

    # ------------------------------------------------------------------
    # Shared derived analyses
    # ------------------------------------------------------------------
    @property
    def analyses(self) -> "AnalysisCache":
        """The shared :class:`~repro.ccp.analysis_cache.AnalysisCache`.

        Zigzag kernel, Theorem-1/2 retained sets and recovery lines
        are each materialised at most once per pattern; every consumer module
        (consistency, obsolete oracles, optimality audit, recovery) goes
        through this bundle instead of building private analysis objects.
        """
        if self._analyses is None:
            from repro.ccp.analysis_cache import AnalysisCache

            self._analyses = AnalysisCache(self)
        return self._analyses

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
        history = self._log.history(second.pid)
        if len(history) == 0:
            return False
        last_event = history[len(history) - 1].event_id
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
        """The dependency vector of ``cid``: recorded if available, else ground truth."""
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
