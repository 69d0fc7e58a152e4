"""Per-process simulated stable storage.

A :class:`StableStorage` holds the stable checkpoints of one process.  It
persists across simulated crashes (the failure injector wipes only the
volatile state of a process) and records the occupancy statistics used by the
evaluation benchmarks:

* current number of retained checkpoints,
* high-water mark of retained checkpoints,
* totals of stored and eliminated checkpoints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.storage.records import StoredCheckpoint


class StableStorage:
    """Stable storage of a single process."""

    def __init__(self, pid: int) -> None:
        self._pid = pid
        self._checkpoints: Dict[int, StoredCheckpoint] = {}
        self._next_index = 0
        self._total_stored = 0
        self._total_eliminated = 0
        self._total_rolled_back = 0
        self._max_retained = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        """The owning process id."""
        return self._pid

    def retained_indices(self) -> List[int]:
        """Indices of the checkpoints currently on stable storage, ascending."""
        return sorted(self._checkpoints)

    def retained_count(self) -> int:
        """Number of checkpoints currently retained."""
        return len(self._checkpoints)

    def max_retained(self) -> int:
        """High-water mark of simultaneously retained checkpoints."""
        return self._max_retained

    def total_stored(self) -> int:
        """Total number of checkpoints ever written."""
        return self._total_stored

    def total_eliminated(self) -> int:
        """Total number of checkpoints eliminated by garbage collection."""
        return self._total_eliminated

    def total_rolled_back(self) -> int:
        """Total number of checkpoints discarded because of rollbacks."""
        return self._total_rolled_back

    def next_index(self) -> int:
        """Index the next stored checkpoint must use."""
        return self._next_index

    def last_index(self) -> int:
        """Index of the most recently written (not yet rolled back) checkpoint, or -1."""
        return self._next_index - 1

    def contains(self, index: int) -> bool:
        """True if checkpoint ``index`` is currently retained."""
        return index in self._checkpoints

    def get(self, index: int) -> StoredCheckpoint:
        """The retained checkpoint with the given index."""
        if index not in self._checkpoints:
            raise KeyError(f"checkpoint s{self._pid}^{index} is not on stable storage")
        return self._checkpoints[index]

    def latest(self) -> Optional[StoredCheckpoint]:
        """The most recent retained checkpoint, or None if the store is empty."""
        if not self._checkpoints:
            return None
        return self._checkpoints[max(self._checkpoints)]

    def occupancy(self) -> int:
        """Sum of the sizes of all retained checkpoints."""
        return sum(c.size for c in self._checkpoints.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def store(
        self,
        index: int,
        dependency_vector: Tuple[int, ...],
        *,
        payload: object = None,
        forced: bool = False,
        time: float = 0.0,
        size: int = 1,
    ) -> StoredCheckpoint:
        """Write checkpoint ``index`` to stable storage.

        Indices must be written in order: each write uses :meth:`next_index`,
        which increases monotonically during normal execution and is rewound by
        :meth:`eliminate_after` when a rollback discards later checkpoints
        (their indices are then reused, matching Algorithm 3 which resets
        ``DV[i]`` from the restored checkpoint).
        """
        expected = self._next_index
        if index != expected:
            raise ValueError(
                f"process {self._pid}: expected to store checkpoint {expected}, "
                f"got {index}"
            )
        record = StoredCheckpoint(
            self._pid, index, tuple(dependency_vector), payload, forced, time, size
        )
        self._checkpoints[index] = record
        self._next_index += 1
        self._total_stored += 1
        self._max_retained = max(self._max_retained, len(self._checkpoints))
        return record

    def eliminate(self, index: int) -> None:
        """Remove checkpoint ``index`` from stable storage (garbage collection)."""
        if index not in self._checkpoints:
            raise KeyError(
                f"cannot eliminate s{self._pid}^{index}: not on stable storage"
            )
        del self._checkpoints[index]
        self._total_eliminated += 1

    def eliminate_after(self, index: int) -> List[int]:
        """Remove every checkpoint with an index strictly greater than ``index``.

        Used during rollback (Algorithm 3, line 4: "eliminate checkpoints
        ``s_i^gamma`` with ``gamma > RI``").  Returns the removed indices.
        Rolled-back checkpoints do not count as garbage-collected in the
        statistics; they are recorded separately.
        """
        removed = [i for i in self._checkpoints if i > index]
        for i in removed:
            del self._checkpoints[i]
        self._total_rolled_back += len(removed)
        self._next_index = index + 1
        return sorted(removed)

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StableStorage(pid={self._pid}, retained={self.retained_indices()})"
        )
