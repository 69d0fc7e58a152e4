"""RDT-LGC: the paper's asynchronous garbage collection algorithm.

:class:`RdtLgc` implements, per process:

* **Algorithm 2** — normal execution periods: dependency-vector propagation,
  plus the ``UC``/CCB bookkeeping that identifies a checkpoint as obsolete as
  soon as it satisfies the causal-knowledge condition of Corollary 1;
* **Algorithm 3** — recovery sessions: rebuilding ``DV`` and ``UC`` after a
  rollback, either from the globally consistent last-interval vector ``LI`` or
  from causal knowledge only (``LI`` replaced by the recreated ``DV``);
* the shortcut for processes that do **not** roll back during a recovery
  session ("release any entry ``UC[f]`` such that ``DV[f] < LI[f]``").

The class is deliberately host-agnostic: it can be driven by the discrete-event
simulator, by a hand-written schedule (as in the Figure 4 reproduction), or
directly from unit tests.  All it needs is to be told about sends, receives,
checkpoints and rollbacks, in the order the process experiences them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.causality.dependency_vector import DependencyVector
from repro.core.rollback import retention_assignments
from repro.core.uncollected import UncollectedTable
from repro.storage.stable import StableStorage


@dataclass(frozen=True)
class RollbackGcResult:
    """Outcome of running Algorithm 3 at one process."""

    rollback_index: int
    rolled_back: Tuple[int, ...]
    collected: Tuple[int, ...]
    retained: Tuple[int, ...]


@dataclass(frozen=True)
class GcStateView:
    """A snapshot of ``DV`` and ``UC`` (the annotations drawn in Figure 4)."""

    dependency_vector: Tuple[int, ...]
    uncollected: Tuple[Optional[int], ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        uc = ", ".join("*" if v is None else str(v) for v in self.uncollected)
        return f"DV={list(self.dependency_vector)} UC=({uc})"


class RdtLgc:
    """Per-process RDT-LGC garbage collector (Algorithms 1-3)."""

    def __init__(
        self,
        pid: int,
        num_processes: int,
        storage: Optional[StableStorage] = None,
    ) -> None:
        """Create the garbage collector of process ``pid``.

        Parameters
        ----------
        pid, num_processes:
            Identity of the owning process and the size of the system.
        storage:
            The process's stable storage.  When omitted a private store is
            created; either way eliminations are applied to it immediately,
            which is what keeps the per-process bound at ``n`` checkpoints.
        """
        if not 0 <= pid < num_processes:
            raise ValueError(f"pid {pid} out of range for {num_processes} processes")
        self._pid = pid
        self._num_processes = num_processes
        self._storage = storage if storage is not None else StableStorage(pid)
        self._dv = DependencyVector.initial(num_processes, pid)
        self._uc = UncollectedTable(num_processes, on_eliminate=self._storage.eliminate)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        """The owning process id."""
        return self._pid

    @property
    def num_processes(self) -> int:
        """Number of processes in the system."""
        return self._num_processes

    @property
    def storage(self) -> StableStorage:
        """The stable storage the collector operates on."""
        return self._storage

    @property
    def dependency_vector(self) -> Tuple[int, ...]:
        """The current dependency vector ``DV`` of the process."""
        return self._dv.as_tuple()

    @property
    def uncollected(self) -> UncollectedTable:
        """The ``UC`` table (exposed for audits and the Figure 4 trace)."""
        return self._uc

    def state_view(self) -> GcStateView:
        """The ``(DV, UC)`` snapshot shown for each event in Figure 4."""
        return GcStateView(self._dv.as_tuple(), self._uc.view())

    def retained_indices(self) -> List[int]:
        """Indices of the stable checkpoints currently retained."""
        return self._storage.retained_indices()

    def collected_indices(self) -> List[int]:
        """Indices eliminated by garbage collection so far, in order."""
        return self._uc.eliminated_history()

    def last_known_checkpoint(self, pid: int) -> int:
        """``last_k_i(pid)`` (Equation 3): ``DV[pid] - 1``."""
        return self._dv.last_known_checkpoint(pid)

    # ------------------------------------------------------------------
    # Algorithm 2 — normal execution periods
    # ------------------------------------------------------------------
    def before_send(self) -> Tuple[int, ...]:
        """The dependency vector to piggyback on an outgoing message."""
        return self._dv.piggyback()

    def on_receive(self, piggybacked: Sequence[int]) -> List[int]:
        """Process the vector piggybacked on a received message.

        For every entry carrying new causal information the corresponding
        ``UC`` entry is re-pointed at the CCB of the last stable checkpoint
        (Theorem 2: that process now denies the collection of the last stable
        checkpoint taken by this one).  Returns the entries that were updated.
        """
        if len(piggybacked) != self._num_processes:
            raise ValueError("piggybacked vector has the wrong size")
        if piggybacked[self._pid] > self._dv[self._pid]:
            raise RuntimeError(
                f"process {self._pid} received new causal information about itself; "
                "the execution violates the system model (orphan message after a "
                "rollback?)"
            )
        updated = self._dv.absorb(piggybacked)
        self._uc.relink(updated, self._pid)
        return updated

    def on_checkpoint(
        self,
        *,
        payload: object = None,
        forced: bool = False,
        time: float = 0.0,
        size: int = 1,
    ) -> int:
        """Take a (basic or forced) checkpoint; returns its index.

        Implements the "on taking checkpoint" handler of Algorithm 2: the
        current ``DV`` is stored with the checkpoint, the previous last stable
        checkpoint loses the ``UC[i]`` reference (and is eliminated if that was
        its only protection), a fresh CCB is created for the new checkpoint and
        ``DV[i]`` is advanced to the new interval.
        """
        index = self._dv.current_interval()
        self._storage.store(
            index,
            self._dv.as_tuple(),
            payload=payload,
            forced=forced,
            time=time,
            size=size,
        )
        self._uc.release(self._pid)
        self._uc.new_ccb(self._pid, index)
        self._dv.advance_after_checkpoint()
        return index

    # ------------------------------------------------------------------
    # Algorithm 3 — recovery sessions
    # ------------------------------------------------------------------
    def on_rollback(
        self,
        rollback_index: int,
        last_interval_vector: Optional[Sequence[int]] = None,
    ) -> RollbackGcResult:
        """Run Algorithm 3 after this process is told to roll back.

        Parameters
        ----------
        rollback_index:
            ``RI``: the index of this process's component in the recovery line.
        last_interval_vector:
            ``LI`` as propagated by a centralized recovery manager.  When
            ``None`` the causal-knowledge variant is used: ``LI`` is replaced
            by the recreated ``DV`` (the paper's uncoordinated recovery case),
            and garbage collection is based on Theorem 2 instead of Theorem 1.
        """
        if not self._storage.contains(rollback_index):
            raise KeyError(
                f"process {self._pid} cannot roll back to checkpoint "
                f"{rollback_index}: it is not on stable storage"
            )
        rolled_back = tuple(self._storage.eliminate_after(rollback_index))
        restored = self._storage.get(rollback_index)
        self._dv.restore(restored.dependency_vector)
        self._dv.advance_after_checkpoint()
        reference = (
            tuple(last_interval_vector)
            if last_interval_vector is not None
            else self._dv.as_tuple()
        )
        if len(reference) != self._num_processes:
            raise ValueError("last-interval vector has the wrong size")
        assignments = retention_assignments(
            self._storage, self._dv.as_tuple(), reference
        )
        collected = tuple(
            self._uc.rebuild(assignments, self._storage.retained_indices())
        )
        return RollbackGcResult(
            rollback_index=rollback_index,
            rolled_back=rolled_back,
            collected=collected,
            retained=tuple(self._storage.retained_indices()),
        )

    def on_peer_rollback(self, last_interval_vector: Sequence[int]) -> List[int]:
        """Recovery-session shortcut for a process that keeps its volatile state.

        Releases every entry ``UC[f]`` with ``DV[f] < LI[f]``: the last stable
        checkpoint of ``p_f`` (after the recovery session) does not causally
        precede this process's volatile state, so by Theorem 1 no checkpoint
        needs to be retained because of ``p_f``.  Returns the checkpoint
        indices eliminated as a consequence.
        """
        if len(last_interval_vector) != self._num_processes:
            raise ValueError("last-interval vector has the wrong size")
        eliminated: List[int] = []
        for f in range(self._num_processes):
            if self._dv[f] < last_interval_vector[f]:
                index = self._uc.release(f)
                if index is not None:
                    eliminated.append(index)
        return eliminated
