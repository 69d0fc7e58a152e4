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
* ``ckpt_rows[p][k - ckpt_base[p]]`` — the knowledge vector frozen just
  *before* the checkpoint event of ``c_p^k``; it encodes the checkpoint's
  ground-truth dependency vector (``gtdv = row + 1`` elementwise).  The rows
  are stored the way they are queried: one list per process in checkpoint
  index order covering exactly the live window ``[checkpoint_base(p),
  last_stable(p)]``.  The window is contiguous by construction — pruning
  drops a prefix, a recovery truncation a suffix.  Every vector here is as
  long as the run's capacity, fixed at construction: a process that joins
  mid-run occupies a slot that read -1 from the start.

Every checkpoint-level precedence fact the theorems need is then one integer
comparison: ``c_f^m`` causally precedes ``c_i^k`` iff ``row(c_i^k)[f] >= m``
(and precedes the volatile ``v_i`` iff ``ck[i][f] >= m``).  Knowledge only
grows along a process's checkpoints, so column ``f`` of ``ckpt_rows[i]`` is
sorted and the retained sets and recovery lines fall out of ``O(n^2)``
``bisect_left(rows, m, key=itemgetter(f))`` calls — comparison and column
extraction both in C, the volatile row one extra comparison; neither run
length nor window size is ever scanned.

A per-process journal of ``(seq, ck)`` snapshots at knowledge-changing events
supports recovery truncation (restore the vector at the cut by bisection) and
is itself pruned together with the log; this is what keeps the state exact on
pruned histories, where a from-scratch replay is impossible because receives
of pruned sends survive only as INTERNAL placeholders.

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
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.ccp.checkpoint import CheckpointId
from repro.membership import MembershipError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.consistency import GlobalCheckpoint
    from repro.simulation.trace import TraceRecorder


class KnowledgeWindowError(RuntimeError):
    """The checkpoint rows do not cover the recorder's live checkpoint window."""


class CheckpointKnowledgeTracker:
    """Online checkpoint-knowledge state, O(P) per recorded event.

    The matrices are sized for the run's capacity; out-of-range pids raise
    :class:`~repro.membership.MembershipError` rather than IndexError.
    ``ckpt_rows[p]`` covers the live checkpoint window of ``p`` and nothing
    else: :meth:`note_checkpoint` appends, :meth:`forget_checkpoints` drops
    the pruned prefix and the rolled-back suffix.
    """

    def __init__(self, num_processes: int) -> None:
        self._num_processes = num_processes
        self.ck: List[List[int]] = [[-1] * num_processes for _ in range(num_processes)]
        #: Knowledge snapshot piggybacked on each sent message (kept until the
        #: message can no longer be (re-)delivered, i.e. dropped or pruned).
        self.msg_ck: Dict[int, Tuple[int, ...]] = {}
        #: Knowledge frozen just before each live stable checkpoint's event:
        #: ``ckpt_rows[p][k - ckpt_base[p]]`` belongs to ``c_p^k``.
        self.ckpt_rows: List[List[Tuple[int, ...]]] = [[] for _ in range(num_processes)]
        self.ckpt_base: List[int] = [0] * num_processes
        #: Per-process journal of (seq, ck-after-event) at knowledge-changing
        #: events, for truncation rebuilds; pruned together with the log.
        self.journal: List[List[Tuple[int, Tuple[int, ...]]]] = [
            [] for _ in range(num_processes)
        ]
        #: Knowledge at the start of the retained log (all -1 until pruning).
        self.base_ck: List[Tuple[int, ...]] = [
            (-1,) * num_processes for _ in range(num_processes)
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
            self.ck[pid] = list(entries[-1][1] if entries else self.base_ck[pid])

    def apply_suffix(self, starts: Sequence[int]) -> None:
        """Drop journal prefixes and re-offset seqs after the log was pruned."""
        for pid in range(self._num_processes):
            entries = self.journal[pid]
            cut = bisect_right(entries, starts[pid] - 1, key=itemgetter(0))
            if cut:
                self.base_ck[pid] = entries[cut - 1][1]
            self.journal[pid] = [
                (seq - starts[pid], vector) for seq, vector in entries[cut:]
            ]

    def forget_checkpoints(self, bases: Sequence[int], taken: Sequence[int]) -> None:
        """Keep the rows of checkpoints ``bases[p] <= k < taken[p]`` only: a
        prune raised the bases (prefix drop), a recovery lowered ``taken``."""
        for pid, rows in enumerate(self.ckpt_rows):
            del rows[taken[pid] - self.ckpt_base[pid] :]
            del rows[: bases[pid] - self.ckpt_base[pid]]
            self.ckpt_base[pid] = bases[pid]

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
    that do not cover the recorder's live windows
    (:class:`KnowledgeWindowError`), which a bisection would misread.
    """

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder
        self._version = recorder.version

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self) -> Tuple[CheckpointKnowledgeTracker, List[int], List[int]]:
        recorder = self._recorder
        if recorder.version != self._version:
            raise RuntimeError(
                "stale incremental analysis view: the recorded execution has "
                "changed since this CCP snapshot was taken"
            )
        tracker = recorder.knowledge_tracker
        assert tracker is not None
        last_stable = [taken - 1 for taken in recorder.checkpoints_taken]
        bases = list(recorder.log.checkpoint_bases)
        covered = [base + len(rows) - 1 for base, rows in zip(tracker.ckpt_base, tracker.ckpt_rows)]
        if tracker.ckpt_base != bases or covered != last_stable:
            raise KnowledgeWindowError(
                f"checkpoint rows cover {tracker.ckpt_base}..{covered} but the "
                f"recorder's live windows are {bases}..{last_stable}"
            )
        return tracker, last_stable, bases

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    # What p_i knows of p_f only grows along p_i's checkpoints (receives
    # max-merge, truncation restores an earlier state and forgets the later
    # snapshots), so column f of p_i's rows is sorted and "the first general
    # checkpoint of p_i that knows c_f^m" is a bisection over the live window,
    # never a scan of it.

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

    def _retained(self, theorem: int) -> FrozenSet[CheckpointId]:
        """``c_i^k`` is retained iff some active ``f`` has
        ``row(c_i^{k+1})[f] >= m_i(f) > row(c_i^k)[f]``: per ``(i, f)`` that
        is the one checkpoint just before the first that knows
        ``c_f^{m_i(f)}``.  Theorem 1 takes ``m_i(f) = last(f)``; Theorem 2 the
        owner's *known* last checkpoint ``ck[i][f]``.

        Departed processes are excluded on both sides: they can never be
        faulty again, so nothing pins their checkpoints and they pin
        nothing (the garbage-of-departed invariant).
        """
        tracker, last_stable, bases = self._state()
        departed = self._recorder.departed
        active = [p for p in range(self._recorder.num_processes) if p not in departed]
        columns = [(f, itemgetter(f)) for f in active]
        first_knowing = self._first_knowing
        retained = set()
        for pid in active:
            rows, volatile = tracker.ckpt_rows[pid], tracker.ck[pid]
            wanted = last_stable if theorem == 1 else volatile
            firsts = set()
            for f, column in columns:
                m = wanted[f]
                if m >= 0:
                    firsts.add(first_knowing(rows, volatile, column, m))
            firsts -= {0, len(rows) + 1}
            retained.update(CheckpointId(pid, bases[pid] + first - 1) for first in firsts)
        return frozenset(retained)

    def theorem1_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints Theorem 1 still deems necessary."""
        return self._retained(1)

    def theorem2_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints retained under causal knowledge only (Theorem 2)."""
        return self._retained(2)

    def recovery_line(self, faulty_set: FrozenSet[int]) -> "GlobalCheckpoint":
        """Lemma 1: per process the last general checkpoint not causally
        preceded by the last stable checkpoint of any faulty process.

        A departed process's component is pinned to its volatile index:
        recovery never rolls the departed back (they hold no state), and
        none of their checkpoints can belong to any future line.
        """
        from repro.ccp.consistency import GlobalCheckpoint

        tracker, last_stable, bases = self._state()
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
            indices.append(bases[pid] + max(preceded - 1, 0))
        return GlobalCheckpoint(tuple(indices))
