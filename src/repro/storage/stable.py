"""Per-process simulated stable storage.

A :class:`StableStorage` holds the stable checkpoints of one process.  It
persists across simulated crashes (the failure injector wipes only the
volatile state of a process) and keeps the two counts the evaluation reads
that no other owner has: how many checkpoints garbage collection eliminated,
and the high-water mark of checkpoints retained at once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Tuple

from repro.storage.records import StoredCheckpoint


class StableStorage:
    """Stable storage of a single process."""

    def __init__(self, pid: int) -> None:
        self._pid = pid
        self._checkpoints: Dict[int, StoredCheckpoint] = {}
        self._next_index = 0
        self._total_eliminated = 0
        self._max_retained = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def retained_indices(self) -> List[int]:
        """Indices of the checkpoints currently on stable storage, ascending."""
        return sorted(self._checkpoints)

    def retained_count(self) -> int:
        """Number of checkpoints currently retained."""
        return len(self._checkpoints)

    def max_retained(self) -> int:
        """High-water mark of simultaneously retained checkpoints."""
        return self._max_retained

    def total_eliminated(self) -> int:
        """Total number of checkpoints eliminated by garbage collection."""
        return self._total_eliminated

    def last_index(self) -> int:
        """Index of the most recently written (not yet rolled back) checkpoint, or -1."""
        return self._next_index - 1

    def contains(self, index: int) -> bool:
        """True if checkpoint ``index`` is currently retained."""
        return index in self._checkpoints

    def stored_vectors(self) -> Mapping[int, Tuple[int, ...]]:
        """Index → dependency vector of each checkpoint currently retained
        (what recovery reads to find this process's part of a line): a
        read-only view, not a copy."""
        return _StoredVectors(self._checkpoints)

    def get(self, index: int) -> StoredCheckpoint:
        """The retained checkpoint with the given index."""
        if index not in self._checkpoints:
            raise KeyError(f"checkpoint s{self._pid}^{index} is not on stable storage")
        return self._checkpoints[index]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def store(
        self,
        index: int,
        dependency_vector: Tuple[int, ...],
        *,
        forced: bool = False,
        time: float = 0.0,
    ) -> StoredCheckpoint:
        """Write checkpoint ``index`` to stable storage.

        Indices must be written in order: each write uses ``last_index() + 1``,
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
        record = StoredCheckpoint(self._pid, index, tuple(dependency_vector), forced, time)
        self._checkpoints[index] = record
        self._next_index += 1
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
        Rolled-back checkpoints do not count as garbage-collected.
        """
        removed = [i for i in self._checkpoints if i > index]
        for i in removed:
            del self._checkpoints[i]
        self._next_index = index + 1
        return sorted(removed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StableStorage(pid={self._pid}, retained={self.retained_indices()})"
        )


class _StoredVectors(Mapping[int, Tuple[int, ...]]):
    """The stored vectors of a storage's retained checkpoints, by index."""

    __slots__ = ("_checkpoints",)

    def __init__(self, checkpoints: Dict[int, StoredCheckpoint]) -> None:
        self._checkpoints = checkpoints

    def __getitem__(self, index: int) -> Tuple[int, ...]:
        return self._checkpoints[index].dependency_vector

    def __iter__(self) -> Iterator[int]:
        return iter(self._checkpoints)

    def __len__(self) -> int:
        return len(self._checkpoints)
