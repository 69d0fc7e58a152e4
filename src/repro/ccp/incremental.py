"""Delta-maintained obsolescence analyses (checkpoint-knowledge tracking).

The classic oracles answer Theorem-1/2 retention and Lemma-1 recovery lines
by querying checkpoint-level causal precedence, which rides on a
:class:`~repro.causality.happens_before.CausalOrder` — an ``O(E * P)``
vector-clock replay of the whole event log.  This module maintains the same
information *online*, in ``O(P)`` per recorded event, so analysis instants do
no event-graph traversal at all:

* ``ck[p][f]`` — the *checkpoint knowledge* of process ``p``: the largest
  index of a stable checkpoint of ``f`` whose checkpoint event lies in the
  causal past of ``p``'s current state (-1 if none).  Sends snapshot the
  sender's vector, receives merge the snapshot elementwise-max into the
  receiver, and taking checkpoint ``k`` sets the own entry to ``k``.
* ``ckpt_ck[c_p^k]`` — the knowledge vector frozen just *before* the
  checkpoint event of ``c_p^k``; it encodes the checkpoint's ground-truth
  dependency vector (``gtdv = ckpt_ck + 1`` elementwise).

Every checkpoint-level precedence fact the theorems need is then one integer
comparison: ``c_f^m`` causally precedes ``c_i^k`` iff ``ckpt_ck[c_i^k][f] >=
m`` (and precedes the volatile ``v_i`` iff ``ck[i][f] >= m``).  Knowledge only
grows along a process's checkpoints, so the retained sets and recovery lines
fall out of ``O(n^2)`` bisections over the *live* checkpoint window — neither
run length nor window size is ever scanned.

A per-process journal of ``(seq, ck)`` snapshots at knowledge-changing events
supports recovery truncation (restore the vector at the cut by bisection) and
is itself pruned together with the log; this is what keeps the state exact on
pruned histories, where a from-scratch replay is impossible because receives
of pruned sends survive only as INTERNAL placeholders.

:class:`IncrementalAnalysisView` is the read side handed to
:class:`~repro.ccp.pattern.CCP` as its ``analysis_provider``: it is bound to
the recorder version it was created at and refuses to answer once the
recorded execution has moved on.  The classic full recompute stays in
:class:`~repro.ccp.analysis_cache.AnalysisCache` as the answer for
provider-less patterns and as the reference the equivalence tests diff a
recorder's view against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.ccp.checkpoint import CheckpointId
from repro.membership import MembershipError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.consistency import GlobalCheckpoint
    from repro.simulation.trace import TraceRecorder


def _entry(vector: Sequence[int], f: int) -> int:
    """``vector[f]`` with out-of-range reads as -1 (no knowledge).

    Snapshots frozen before a membership growth are shorter than the current
    capacity; a missing column means the snapshot predates process ``f``'s
    existence, which is exactly "no checkpoint of ``f`` known".
    """
    return vector[f] if f < len(vector) else -1


class CheckpointKnowledgeTracker:
    """Online checkpoint-knowledge state, O(P) per recorded event.

    The matrices are sized for the current capacity and grow via
    :meth:`grow` when membership expands; out-of-range pids raise
    :class:`~repro.membership.MembershipError` rather than IndexError.
    """

    def __init__(self, num_processes: int) -> None:
        self._num_processes = num_processes
        self.ck: List[List[int]] = [[-1] * num_processes for _ in range(num_processes)]
        #: Knowledge snapshot piggybacked on each sent message (kept until the
        #: message can no longer be (re-)delivered, i.e. dropped or pruned).
        self.msg_ck: Dict[int, Tuple[int, ...]] = {}
        #: Knowledge frozen just before each stable checkpoint's event.
        self.ckpt_ck: Dict[CheckpointId, Tuple[int, ...]] = {}
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
                f"{self._num_processes}); grow the tracker on join first"
            )

    def grow(self, num_processes: int) -> None:
        """Extend the matrices to a larger capacity (membership join).

        Live vectors are padded with -1 (nobody can know a checkpoint of a
        process that did not exist); frozen snapshots (``msg_ck``,
        ``ckpt_ck``, journal entries) are left short and read through
        :func:`_entry`, so no history rewrite is needed.
        """
        if num_processes < self._num_processes:
            raise MembershipError(
                f"cannot shrink the tracker from {self._num_processes} to "
                f"{num_processes} processes (leaves retire pids, they do "
                f"not reduce capacity)"
            )
        if num_processes == self._num_processes:
            return
        pad = num_processes - self._num_processes
        for row in self.ck:
            row.extend([-1] * pad)
        self.ck.extend([-1] * num_processes for _ in range(pad))
        self.base_ck = [base + (-1,) * pad for base in self.base_ck]
        self.base_ck.extend((-1,) * num_processes for _ in range(pad))
        self.journal.extend([] for _ in range(pad))
        self._num_processes = num_processes

    def _full_row(self, vector: Sequence[int]) -> List[int]:
        """A snapshot padded to the current capacity (for live ``ck`` rows)."""
        return [_entry(vector, f) for f in range(self._num_processes)]

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
        changed = False
        for f, known in enumerate(snapshot):
            if known > vector[f]:
                vector[f] = known
                changed = True
        if changed:
            self.journal[receiver].append((seq, tuple(vector)))

    def note_checkpoint(self, pid: int, index: int, seq: int) -> None:
        self._check_pid(pid)
        self.ckpt_ck[CheckpointId(pid, index)] = tuple(self.ck[pid])
        self.ck[pid][pid] = index
        self.journal[pid].append((seq, tuple(self.ck[pid])))

    # ------------------------------------------------------------------
    # History rewrites
    # ------------------------------------------------------------------
    def apply_truncation(self, lengths: Sequence[int]) -> None:
        """Restore the state at a per-process prefix cut (recovery session)."""
        for pid in range(self._num_processes):
            entries = self.journal[pid]
            cut = bisect_right(entries, lengths[pid] - 1, key=lambda item: item[0])
            del entries[cut:]
            self.ck[pid] = self._full_row(
                entries[-1][1] if entries else self.base_ck[pid]
            )

    def apply_suffix(self, starts: Sequence[int]) -> None:
        """Drop journal prefixes and re-offset seqs after the log was pruned."""
        for pid in range(self._num_processes):
            entries = self.journal[pid]
            cut = bisect_right(entries, starts[pid] - 1, key=lambda item: item[0])
            if cut:
                self.base_ck[pid] = entries[cut - 1][1]
            self.journal[pid] = [
                (seq - starts[pid], vector) for seq, vector in entries[cut:]
            ]

    def forget_checkpoints(self, cids: Iterable[CheckpointId]) -> None:
        for cid in cids:
            self.ckpt_ck.pop(cid, None)

    def forget_messages(self, message_ids: Iterable[int]) -> None:
        for message_id in message_ids:
            self.msg_ck.pop(message_id, None)


class IncrementalAnalysisView:
    """Read-only analysis provider over one recorder version.

    Serves the Theorem-1/2 retained sets and Lemma-1 recovery lines straight
    from the tracker's knowledge state.  The view is pinned to the recorder
    version current at construction: answering from newer state would
    silently describe a different execution, so stale access raises.
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
        return tracker, last_stable, bases

    @property
    def _departed(self) -> FrozenSet[int]:
        return self._recorder.departed

    def _snapshot(
        self,
        tracker: CheckpointKnowledgeTracker,
        pid: int,
        index: int,
        last_stable: Sequence[int],
    ) -> Sequence[int]:
        """Knowledge just before checkpoint ``index`` of ``pid`` (volatile: now)."""
        if index > last_stable[pid]:
            return tracker.ck[pid]
        return tracker.ckpt_ck[CheckpointId(pid, index)]

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    # What p_i knows of p_f only grows along p_i's checkpoints (receives
    # max-merge, truncation restores an earlier state and forgets the later
    # snapshots), so "the first general checkpoint of p_i that knows c_f^m"
    # is a bisection over the live window, never a scan of it.

    def _first_knowing(
        self,
        tracker: CheckpointKnowledgeTracker,
        pid: int,
        window: range,
        last_stable: Sequence[int],
        targets: Mapping[int, int],
    ) -> int:
        """Offset in ``window`` of the first general checkpoint of ``pid`` whose
        knowledge reaches ``targets[f]`` for some ``f`` (``len(window)`` if none)."""

        def knows(index: int) -> bool:
            snapshot = self._snapshot(tracker, pid, index, last_stable)
            return any(_entry(snapshot, f) >= m for f, m in targets.items())

        return bisect_left(window, True, key=knows)

    def _retained(self, theorem: int) -> FrozenSet[CheckpointId]:
        """``c_i^k`` is retained iff some active ``f`` has
        ``ckpt_ck[c_i^{k+1}][f] >= m_i(f) > ckpt_ck[c_i^k][f]``: per ``(i, f)``
        that is the one checkpoint just before the first that knows
        ``c_f^{m_i(f)}``.  Theorem 1 takes ``m_i(f) = last(f)``; Theorem 2 the
        owner's *known* last checkpoint ``ck[i][f]``.

        Departed processes are excluded on both sides: they can never be
        faulty again, so nothing pins their checkpoints and they pin
        nothing (the garbage-of-departed invariant).
        """
        tracker, last_stable, bases = self._state()
        departed = self._departed
        active = [p for p in range(self._recorder.num_processes) if p not in departed]
        retained = set()
        for pid in active:
            window = range(bases[pid], last_stable[pid] + 2)  # stable ones, then volatile
            wanted = last_stable if theorem == 1 else tracker.ck[pid]
            for f in active:
                if wanted[f] < 0:
                    continue
                first = self._first_knowing(tracker, pid, window, last_stable, {f: wanted[f]})
                if 0 < first < len(window):
                    retained.add(CheckpointId(pid, window[first - 1]))
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
        departed = self._departed
        lasts = {f: last_stable[f] for f in faulty_set}
        indices: List[int] = []
        for pid in range(self._recorder.num_processes):
            if pid in departed:
                indices.append(last_stable[pid] + 1)
                continue
            window = range(bases[pid], last_stable[pid] + 2)
            preceded = self._first_knowing(tracker, pid, window, last_stable, lasts)
            indices.append(window[max(preceded - 1, 0)])
        return GlobalCheckpoint(tuple(indices))
