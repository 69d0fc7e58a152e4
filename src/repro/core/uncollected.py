"""The ``UC`` (Uncollected Checkpoints) table of Algorithm 1.

``UC`` is a size-``n`` vector local to each process ``p_i``.  Entry ``UC[f]``
references the CCB of the stable checkpoint that ``p_i`` must retain *because
of* ``p_f`` (Theorem 2): the most recent stable checkpoint of ``p_i`` not
causally preceded by the last checkpoint of ``p_f`` known to ``p_i``.  Several
entries may reference the same CCB; the CCB's reference counter tracks how
many do.  A checkpoint whose CCB loses its last reference is obsolete and is
eliminated immediately.

The table delegates the actual elimination to a callback so it can sit on top
of any stable-storage implementation (or none, for unit tests of the
bookkeeping itself).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.ccb import CheckpointControlBlock

EliminateCallback = Callable[[int], None]


def _null_link_target(j: int, i: int) -> RuntimeError:
    return RuntimeError(
        f"link({j}, {i}) with UC[{i}] = Null: the process has not taken "
        "its initial checkpoint yet"
    )


class UncollectedTable:
    """The ``UC`` vector plus the ``release``/``link``/``newCCB`` procedures."""

    def __init__(
        self,
        num_processes: int,
        on_eliminate: Optional[EliminateCallback] = None,
    ) -> None:
        if num_processes <= 0:
            raise ValueError("the UC table needs at least one entry")
        self._entries: List[Optional[CheckpointControlBlock]] = [None] * num_processes
        self._on_eliminate = on_eliminate
        self._eliminated: List[int] = []

    # ------------------------------------------------------------------
    # Algorithm 1 procedures
    # ------------------------------------------------------------------
    def release(self, j: int) -> Optional[int]:
        """Procedure ``release(j)``: drop ``UC[j]``'s reference.

        If the referenced CCB becomes unreferenced its checkpoint is eliminated
        and the eliminated index is returned; otherwise ``None``.  The entry is
        always cleared, so a released entry never silently keeps a stale
        reference (Algorithm 2 immediately re-points it via ``link`` or
        ``newCCB``; recovery-session shortcuts leave it ``Null``).
        """
        ccb = self._entries[j]
        if ccb is None:
            return None
        eliminated: Optional[int] = None
        if ccb.release():
            eliminated = ccb.index
            self._eliminate(ccb.index)
        self._entries[j] = None
        return eliminated

    def link(self, j: int, i: int) -> None:
        """Procedure ``link(j, i)``: make ``UC[j]`` reference the same CCB as ``UC[i]``."""
        target = self._entries[i]
        if target is None:
            raise _null_link_target(j, i)
        if self._entries[j] is not None:
            raise RuntimeError(
                f"link({j}, {i}) would overwrite a live reference; call release({j}) first"
            )
        self._entries[j] = target
        target.acquire()

    def relink(self, updated: Iterable[int], i: int) -> None:
        """Algorithm 2's receive loop: ``release(j); link(j, i)`` for every ``j`` in ``updated``.

        One procedure instead of two calls per entry (a receive updates
        O(n) entries): the same reference counts, the same eliminations in
        the same order and the same two errors as the literal sequence.
        """
        entries = self._entries
        for j in updated:
            ccb = entries[j]
            if ccb is not None:
                if ccb.ref_count > 1:
                    ccb.ref_count -= 1
                elif ccb.release():  # refuses a release too many itself
                    self._eliminate(ccb.index)
                entries[j] = None
            target = entries[i]
            if target is None:
                raise _null_link_target(j, i)
            entries[j] = target
            target.ref_count += 1

    def new_ccb(self, j: int, index: int) -> CheckpointControlBlock:
        """Procedure ``newCCB(j, ind)``: create a CCB for checkpoint ``index``."""
        if self._entries[j] is not None:
            raise RuntimeError(
                f"newCCB({j}, {index}) would overwrite a live reference; "
                f"call release({j}) first"
            )
        ccb = CheckpointControlBlock(index, ref_count=1)
        self._entries[j] = ccb
        return ccb

    # ------------------------------------------------------------------
    # Recovery-session (Algorithm 3) helpers
    # ------------------------------------------------------------------
    def rebuild(
        self,
        assignments: Dict[int, int],
        stored_indices: Sequence[int],
    ) -> List[int]:
        """Rebuild the table from scratch during a rollback.

        ``assignments`` maps entry ``f`` to the checkpoint index ``UC[f]`` must
        reference (entries absent from the mapping become ``Null``).
        ``stored_indices`` lists every checkpoint currently on stable storage;
        a fresh CCB is created for each (Algorithm 3, line 7) and every CCB
        left unreferenced afterwards has its checkpoint eliminated (lines
        15-17).  Returns the indices eliminated this way, in ascending order.
        """
        blocks: Dict[int, CheckpointControlBlock] = {
            index: CheckpointControlBlock(index, ref_count=0) for index in stored_indices
        }
        self._entries = [None] * len(self._entries)
        for entry, index in assignments.items():
            if index not in blocks:
                raise KeyError(
                    f"UC[{entry}] cannot reference checkpoint {index}: not on stable storage"
                )
            blocks[index].acquire()
            self._entries[entry] = blocks[index]
        eliminated = sorted(index for index, ccb in blocks.items() if ccb.ref_count == 0)
        for index in eliminated:
            self._eliminate(index)
        return eliminated

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def referenced_index(self, j: int) -> Optional[int]:
        """The checkpoint index referenced by ``UC[j]``, or None."""
        ccb = self._entries[j]
        return ccb.index if ccb is not None else None

    def view(self) -> Tuple[Optional[int], ...]:
        """The table as a tuple of referenced indices (None for ``Null``).

        This is exactly the representation used in Figure 4 of the paper,
        where ``*`` stands for ``Null``.
        """
        return tuple(self.referenced_index(j) for j in range(len(self._entries)))

    def referenced_indices(self) -> Set[int]:
        """The set of checkpoint indices currently protected by some entry."""
        return {ccb.index for ccb in self._entries if ccb is not None}

    def reference_count(self, index: int) -> int:
        """Number of entries referencing checkpoint ``index``."""
        return sum(
            1 for ccb in self._entries if ccb is not None and ccb.index == index
        )

    def eliminated_history(self) -> List[int]:
        """All checkpoint indices this table has eliminated, in order."""
        return list(self._eliminated)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _eliminate(self, index: int) -> None:
        self._eliminated.append(index)
        if self._on_eliminate is not None:
            self._on_eliminate(index)
