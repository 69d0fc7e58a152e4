"""Delta-maintained obsolescence analyses (checkpoint-knowledge tracking).

The literal transcriptions of Theorem-1/2 retention and Lemma-1 recovery
lines query checkpoint-level causal precedence, which rides on a
:class:`~repro.causality.happens_before.CausalOrder` — an ``O(E * P)``
vector-clock replay of the whole event log.  This module maintains the same
information *online*, in ``O(P)`` per recorded event, so analysis instants do
no event-graph traversal at all:

* ``ck[p][f]`` — the *checkpoint knowledge* of process ``p``: the largest
  index of a stable checkpoint of ``f`` whose checkpoint event lies in the
  causal past of ``p``'s current state (-1 if none).  Sends snapshot the
  sender's vector, receives merge the snapshot elementwise-max into the
  receiver, and taking checkpoint ``k`` sets the own entry to ``k``.
* ``ckpt_rows[p][k]`` — the knowledge vector frozen just *before* the
  checkpoint event of ``c_p^k``; it encodes the checkpoint's ground-truth
  dependency vector (``gtdv = row + 1`` elementwise).  The rows are stored
  the way they are queried: one list per process in checkpoint index order
  covering exactly ``[0, last_stable(p)]`` — a recovery truncation drops a
  suffix, reused indices append again.  Every vector here is as long as the
  run's capacity, fixed at construction: a process that joins mid-run
  occupies a slot that read -1 from the start.

Every checkpoint-level precedence fact the theorems need is then one integer
comparison: ``c_f^m`` causally precedes ``c_i^k`` iff ``row(c_i^k)[f] >= m``
(and precedes the volatile ``v_i`` iff ``ck[i][f] >= m``).  Knowledge only
grows along a process's checkpoints, so column ``f`` of ``ckpt_rows[i]`` is
sorted and the retained sets and recovery lines fall out of ``O(n^2)``
``bisect_left(rows, m, key=itemgetter(f))`` calls — comparison and column
extraction both in C, the volatile row one extra comparison; neither the
run nor the rows are ever scanned.  The same rows answer one question
at a time without a CCP: one checkpoint's Theorem-1 retention, one
process's Theorem-2 set, one pair's precedence.

A per-process journal of ``(seq, ck)`` snapshots at knowledge-changing events
supports recovery truncation: the vector at the cut is restored by
bisection, not by a replay.

:class:`IncrementalAnalysisView` is the read side handed to every
:class:`~repro.ccp.pattern.CCP` as its ``analysis_provider``: it is bound to
the recorder version it was created at and refuses to answer once the
recorded execution has moved on.  It is the one production answer — hand-built
patterns too come from a recorder (:class:`~repro.ccp.builder.CCPBuilder`) —
and the literal transcriptions in :mod:`repro.core.obsolete` and
:mod:`repro.recovery.recovery_line` are the reference the equivalence tests
diff it against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count
from operator import gt, itemgetter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.ccp.checkpoint import CheckpointId
from repro.membership import MembershipError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.consistency import GlobalCheckpoint
    from repro.simulation.trace import TraceRecorder


class KnowledgeWindowError(RuntimeError):
    """The checkpoint rows do not cover the recorder's stable checkpoints."""


class CheckpointKnowledgeTracker:
    """Online checkpoint-knowledge state, O(P) per recorded event.

    The matrices are sized for the run's capacity; out-of-range pids raise
    :class:`~repro.membership.MembershipError` rather than IndexError.
    ``ckpt_rows[p]`` covers the stable checkpoints of ``p`` and nothing
    else: :meth:`note_checkpoint` appends, :meth:`forget_checkpoints` drops
    the rolled-back suffix.
    """

    def __init__(self, num_processes: int) -> None:
        self._num_processes = num_processes
        self.ck: List[List[int]] = [[-1] * num_processes for _ in range(num_processes)]
        #: Knowledge snapshot piggybacked on each sent message (kept until the
        #: message can no longer be (re-)delivered, i.e. dropped).
        self.msg_ck: Dict[int, Tuple[int, ...]] = {}
        #: Knowledge frozen just before each stable checkpoint's event:
        #: ``ckpt_rows[p][k]`` belongs to ``c_p^k``.
        self.ckpt_rows: List[List[Tuple[int, ...]]] = [[] for _ in range(num_processes)]
        #: Per-process journal of (seq, ck-after-event) at knowledge-changing
        #: events, for truncation rebuilds.
        self.journal: List[List[Tuple[int, Tuple[int, ...]]]] = [
            [] for _ in range(num_processes)
        ]

    @property
    def num_processes(self) -> int:
        """The tracked capacity."""
        return self._num_processes

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self._num_processes:
            raise MembershipError(
                f"process {pid} is outside the tracked capacity of "
                f"{self._num_processes} processes (expected pid < "
                f"{self._num_processes})"
            )

    # ------------------------------------------------------------------
    # Event notifications (called by TraceRecorder)
    # ------------------------------------------------------------------
    def note_send(self, message_id: int, sender: int) -> None:
        self._check_pid(sender)
        self.msg_ck[message_id] = tuple(self.ck[sender])

    def note_receive(self, message_id: int, receiver: int, seq: int) -> None:
        self._check_pid(receiver)
        snapshot = self.msg_ck[message_id]
        vector = self.ck[receiver]
        newer = tuple(compress(count(), map(gt, snapshot, vector)))
        if newer:
            for f in newer:
                vector[f] = snapshot[f]
            self.journal[receiver].append((seq, tuple(vector)))

    def note_checkpoint(self, pid: int, index: int, seq: int) -> None:
        self._check_pid(pid)
        self.ckpt_rows[pid].append(tuple(self.ck[pid]))
        self.ck[pid][pid] = index
        self.journal[pid].append((seq, tuple(self.ck[pid])))

    # ------------------------------------------------------------------
    # History rewrites
    # ------------------------------------------------------------------
    def apply_truncation(self, lengths: Sequence[int]) -> None:
        """Restore the state at a per-process prefix cut (recovery session)."""
        for pid in range(self._num_processes):
            entries = self.journal[pid]
            cut = bisect_right(entries, lengths[pid] - 1, key=itemgetter(0))
            del entries[cut:]
            self.ck[pid] = list(entries[-1][1]) if entries else [-1] * self._num_processes

    def forget_checkpoints(self, taken: Sequence[int]) -> None:
        """Keep the rows of checkpoints ``k < taken[p]`` only (a recovery
        lowered ``taken``)."""
        for pid, rows in enumerate(self.ckpt_rows):
            del rows[taken[pid] :]

    def forget_messages(self, message_ids: Iterable[int]) -> None:
        for message_id in message_ids:
            self.msg_ck.pop(message_id, None)


class IncrementalAnalysisView:
    """Read-only analysis provider over one recorder version.

    Serves the Theorem-1/2 retained sets and Lemma-1 recovery lines straight
    from the tracker's knowledge state, by C-level bisection over the
    per-process checkpoint rows.  The view is pinned to the recorder version
    current at construction: answering from newer state would silently
    describe a different execution, so stale access raises — and so do rows
    that do not cover the recorder's stable checkpoints
    (:class:`KnowledgeWindowError`), which a bisection would misread.
    """

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder
        self._version = recorder.version

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tracker(self) -> CheckpointKnowledgeTracker:
        recorder = self._recorder
        if recorder.version != self._version:
            raise RuntimeError(
                "stale incremental analysis view: the recorded execution has "
                "changed since this CCP snapshot was taken"
            )
        tracker = recorder.knowledge_tracker
        assert tracker is not None
        return tracker

    def _state(self) -> Tuple[CheckpointKnowledgeTracker, List[int]]:
        tracker = self._tracker()
        last_stable = [taken - 1 for taken in self._recorder.checkpoints_taken]
        covered = [len(rows) - 1 for rows in tracker.ckpt_rows]
        if covered != last_stable:
            raise KnowledgeWindowError(
                f"checkpoint rows reach {covered} but the recorder's last "
                f"stable checkpoints are {last_stable}"
            )
        return tracker, last_stable

    @staticmethod
    def _row(tracker: CheckpointKnowledgeTracker, cid: CheckpointId) -> Sequence[int]:
        """The knowledge row of general checkpoint ``cid``: frozen for a stable
        one, the process's current vector for the volatile one."""
        rows = tracker.ckpt_rows[cid.pid]
        if 0 <= cid.index < len(rows):
            return rows[cid.index]
        if cid.index == len(rows):
            return tracker.ck[cid.pid]
        raise KeyError(f"checkpoint {cid} is not part of the recorded execution")

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    # What p_i knows of p_f only grows along p_i's checkpoints (receives
    # max-merge, truncation restores an earlier state and forgets the later
    # snapshots), so column f of p_i's rows is sorted and "the first general
    # checkpoint of p_i that knows c_f^m" is a bisection over the rows, never
    # a scan of them.

    @staticmethod
    def _first_knowing(
        rows: Sequence[Sequence[int]], volatile: Sequence[int], column: itemgetter, m: int
    ) -> int:
        """Offset of the first general checkpoint (``rows``, then ``volatile``)
        whose ``column`` reaches ``m``; ``len(rows) + 1`` if none does."""
        first = bisect_left(rows, m, key=column)
        if first == len(rows) and column(volatile) < m:
            return first + 1
        return first

    def _retained(
        self, theorem: int, owners: Optional[Iterable[int]] = None
    ) -> FrozenSet[CheckpointId]:
        """``c_i^k`` is retained iff some active ``f`` has
        ``row(c_i^{k+1})[f] >= m_i(f) > row(c_i^k)[f]``: per ``(i, f)`` that
        is the one checkpoint just before the first that knows
        ``c_f^{m_i(f)}``.  Theorem 1 takes ``m_i(f) = last(f)``; Theorem 2 the
        owner's *known* last checkpoint ``ck[i][f]``.  ``owners`` restricts
        the answer to those processes' checkpoints.

        Departed processes are excluded on both sides: they can never be
        faulty again, so nothing pins their checkpoints and they pin
        nothing (the garbage-of-departed invariant).
        """
        tracker, last_stable = self._state()
        departed = self._recorder.departed
        active = [p for p in range(self._recorder.num_processes) if p not in departed]
        columns = [(f, itemgetter(f)) for f in active]
        first_knowing = self._first_knowing
        retained = set()
        for pid in active if owners is None else [p for p in owners if p not in departed]:
            rows, volatile = tracker.ckpt_rows[pid], tracker.ck[pid]
            wanted = last_stable if theorem == 1 else volatile
            firsts = set()
            for f, column in columns:
                m = wanted[f]
                if m >= 0:
                    firsts.add(first_knowing(rows, volatile, column, m))
            firsts -= {0, len(rows) + 1}
            retained.update(CheckpointId(pid, first - 1) for first in firsts)
        return frozenset(retained)

    def theorem1_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints Theorem 1 still deems necessary."""
        return self._retained(1)

    def theorem2_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints retained under causal knowledge only (Theorem 2)."""
        return self._retained(2)

    def theorem1_retains(self, cid: CheckpointId) -> bool:
        """Whether stable checkpoint ``cid`` is in :meth:`theorem1_retained`.

        The set's rule for one checkpoint, ``O(n)`` on two rows: some active
        ``f`` has ``row(c_i^k)[f] < last(f) <= row(c_i^{k+1})[f]``, the
        volatile row standing in for ``c_i^{k+1}`` after the last stable
        checkpoint.  KeyError unless ``cid`` is a live stable checkpoint.
        """
        tracker, last_stable = self._state()
        if cid.index > last_stable[cid.pid]:
            raise KeyError(f"checkpoint {cid} is not a live stable checkpoint")
        row = self._row(tracker, cid)
        after = self._row(tracker, CheckpointId(cid.pid, cid.index + 1))
        departed = self._recorder.departed
        if cid.pid in departed:
            return False  # nothing pins a departed process's checkpoints
        return any(
            row[f] < m <= after[f] for f, m in enumerate(last_stable) if f not in departed
        )

    def theorem2_retained_of(self, pid: int) -> FrozenSet[CheckpointId]:
        """Process ``pid``'s share of :meth:`theorem2_retained`.

        It reads ``pid``'s own rows and knowledge vector only, so it changes
        only when ``pid``'s knowledge does (or the membership does).
        """
        return self._retained(2, (pid,))

    def precedes(self, first: CheckpointId, second: CheckpointId) -> bool:
        """Whether general checkpoint ``first`` causally precedes ``second``.

        ``c_f^m -> c_i^k`` iff ``row(c_i^k)[f] >= m``, the volatile ``v_i``
        reading ``ck[i]``.  The one rule covers every case
        :meth:`~repro.ccp.pattern.CCP.causally_precedes` (the event-level
        reference) spells out: a process knows its own earlier checkpoints
        (``row(c_i^k)[i] = k - 1``), and no row knows a volatile checkpoint
        or anything after it.  KeyError unless both are general checkpoints
        of the recorded execution.
        """
        tracker = self._tracker()
        self._row(tracker, first)  # KeyError unless it was recorded
        return self._row(tracker, second)[first.pid] >= first.index

    def recovery_line(self, faulty_set: FrozenSet[int]) -> "GlobalCheckpoint":
        """Lemma 1: per process the last general checkpoint not causally
        preceded by the last stable checkpoint of any faulty process.

        A departed process's component is pinned to its volatile index:
        recovery never rolls the departed back (they hold no state), and
        none of their checkpoints can belong to any future line.
        """
        from repro.ccp.consistency import GlobalCheckpoint

        tracker, last_stable = self._state()
        departed = self._recorder.departed
        lasts = [(itemgetter(f), last_stable[f]) for f in faulty_set]
        indices: List[int] = []
        for pid in range(self._recorder.num_processes):
            if pid in departed:
                indices.append(last_stable[pid] + 1)
                continue
            rows, volatile = tracker.ckpt_rows[pid], tracker.ck[pid]
            preceded = min(
                (self._first_knowing(rows, volatile, column, m) for column, m in lasts),
                default=len(rows) + 1,
            )
            indices.append(max(preceded - 1, 0))
        return GlobalCheckpoint(tuple(indices))
