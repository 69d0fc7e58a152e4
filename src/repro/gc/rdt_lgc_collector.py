"""RDT-LGC (Algorithms 1-3) as the collector of the checkpointing middleware.

The node owns the dependency vector and the storage, so that *any* protocol
can be paired with *any* collector: paired with the ``fdas`` protocol this is
Algorithm 4, the merged FDAS + RDT-LGC.  The collector keeps the ``UC`` table
of Algorithm 1, re-links it on the node's notifications (Algorithm 2) and
rebuilds it after a rollback (Algorithm 3), so it is the one place under
``repro`` that builds an :class:`repro.core.UncollectedTable` or computes a
retention assignment.  It is checked against independent references: the
paper's Figure 4 annotations, the Theorem 1/2 oracles and
:func:`repro.core.audit_garbage_collection`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.rollback import retention_assignments
from repro.core.uncollected import UncollectedTable
from repro.gc.base import GarbageCollector
from repro.storage.stable import StableStorage


class RdtLgcCollector(GarbageCollector):
    """RDT-LGC as a pluggable collector (asynchronous, Definition 8)."""

    name = "rdt-lgc"
    asynchronous = True
    uses_time_assumptions = False
    uses_control_messages = False
    claims_optimality = True

    def __init__(self, pid: int, num_processes: int, storage: StableStorage) -> None:
        super().__init__(pid, num_processes, storage)
        self._uc = UncollectedTable(num_processes, on_eliminate=self._eliminate)
        self._departed_peers: Set[int] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def uncollected(self) -> UncollectedTable:
        """The ``UC`` table (exposed for audits and tests)."""
        return self._uc

    def uc_view(self) -> Tuple[Optional[int], ...]:
        """The ``UC`` entries as checkpoint indices (None for ``Null``)."""
        return self._uc.view()

    def collected_indices(self) -> List[int]:
        """Checkpoint indices eliminated so far, in order."""
        return self._uc.eliminated_history()

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def on_receive(self, updated_entries: Sequence[int]) -> None:
        """Re-point ``UC[j]`` at the last stable checkpoint for every new dependency."""
        if self._departed_peers:
            # A piggyback can carry transitive knowledge of a departed
            # process; it is never again a reason to retain anything.
            updated_entries = [
                j for j in updated_entries if j not in self._departed_peers
            ]
        self._uc.relink(updated_entries, self._pid)

    def on_checkpoint_stored(
        self, index: int, dv: Sequence[int], *, forced: bool, time: float
    ) -> None:
        """Release the previous last checkpoint's ``UC[i]`` reference; protect the new one."""
        self._uc.release(self._pid)
        self._uc.new_ccb(self._pid, index)

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------
    def on_rollback(
        self,
        rollback_index: int,
        last_interval_vector: Optional[Sequence[int]],
        dv: Sequence[int],
    ) -> List[int]:
        """Rebuild ``UC`` after a rollback and collect the checkpoints left unreferenced."""
        reference = (
            tuple(last_interval_vector) if last_interval_vector is not None else tuple(dv)
        )
        assignments = retention_assignments(self._storage, dv, reference)
        for peer in self._departed_peers:
            assignments.pop(peer, None)
        return self._uc.rebuild(assignments, self._storage.retained_indices())

    def on_peer_rollback(
        self, last_interval_vector: Sequence[int], dv: Sequence[int]
    ) -> List[int]:
        """Release every ``UC[f]`` whose process no longer precedes this one's state."""
        eliminated: List[int] = []
        for f in range(self._num_processes):
            if dv[f] < last_interval_vector[f]:
                index = self._uc.release(f)
                if index is not None:
                    eliminated.append(index)
        return eliminated

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def on_peer_departure(self, pid: int) -> None:
        """Drop the checkpoint retained because of a departed process.

        ``UC[pid]`` references the stable checkpoint this process keeps
        solely in case ``p_pid`` fails (Theorem 2); a departed process can
        never fail, so the reference is released — eliminating the
        checkpoint if no other entry retains it.  The entry stays ``Null``
        forever: later piggybacks carrying transitive knowledge of ``pid``
        are ignored (see :meth:`on_receive`), and recovery-session rebuilds
        skip its assignment.
        """
        if pid != self._pid:
            self._departed_peers.add(pid)
            self._uc.release(pid)
