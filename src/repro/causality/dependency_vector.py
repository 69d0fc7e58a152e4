"""Transitive dependency vectors (Strom & Yemini) as used by RDT protocols.

Section 4.2 of the paper describes the mechanism precisely:

* every process ``p_i`` maintains a size-``n`` vector ``DV``, initially all
  zeros;
* ``DV[i]`` is the index of the *current checkpoint interval* of ``p_i`` and is
  incremented immediately after a new checkpoint is taken;
* every other entry ``DV[j]`` is the highest interval index of ``p_j`` upon
  which ``p_i`` depends, updated on message receipt by componentwise maximum;
* the vector is piggybacked on every application message and stored together
  with each checkpoint.

Two facts derived from the propagation mechanism are used throughout the
paper and the library:

* **Equation (2)** — ``c_a^alpha -> c_b^beta  iff  alpha < DV(c_b^beta)[a]``;
* **Equation (3)** — ``last_k_i(j) = DV(v_i)[j] - 1`` (the last stable
  checkpoint of ``p_j`` causally known by ``p_i``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple


class DependencyVector:
    """The dependency vector of one process (or stored with one checkpoint)."""

    __slots__ = ("_entries", "_owner")

    def __init__(self, entries: Iterable[int], owner: int) -> None:
        self._entries: List[int] = list(entries)
        if not 0 <= owner < len(self._entries):
            raise ValueError(
                f"owner {owner} out of range for a {len(self._entries)}-entry vector"
            )
        if any(v < 0 for v in self._entries):
            raise ValueError("dependency vector entries must be non-negative")
        self._owner = owner

    @classmethod
    def initial(cls, num_processes: int, owner: int) -> "DependencyVector":
        """The all-zeros vector a process starts with (Section 4.2)."""
        return cls([0] * num_processes, owner)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def owner(self) -> int:
        """The process that maintains (or took the checkpoint storing) this DV."""
        return self._owner

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> int:
        return self._entries[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    @property
    def entries(self) -> Sequence[int]:
        """The live entries, not a copy: for reading before the vector next changes."""
        return self._entries

    def as_tuple(self) -> Tuple[int, ...]:
        """The entries as an immutable tuple."""
        return tuple(self._entries)

    def copy(self) -> "DependencyVector":
        """An independent snapshot of this vector (e.g. to store with a checkpoint)."""
        return DependencyVector(self._entries, self._owner)

    def snapshot(self) -> Tuple[int, ...]:
        """Alias of :meth:`as_tuple`, emphasising checkpoint-time snapshots."""
        return self.as_tuple()

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------
    def current_interval(self) -> int:
        """The index of the owner's current checkpoint interval (``DV[i]``)."""
        return self._entries[self._owner]

    def piggyback(self) -> Tuple[int, ...]:
        """The value to attach to an outgoing application message."""
        return self.as_tuple()

    def absorb(self, piggybacked: Sequence[int]) -> List[int]:
        """Apply the receive rule and return the indices that increased.

        This is the ``for j: if m.DV[j] > DV[j]`` loop of Algorithm 2.  The
        returned list contains every process id ``j`` for which new causal
        information was learned; RDT-LGC uses exactly this set to re-link the
        ``UC`` entries.
        """
        if len(piggybacked) != len(self._entries):
            raise ValueError("piggybacked vector has the wrong size")
        updated: List[int] = []
        for j, value in enumerate(piggybacked):
            if value > self._entries[j]:
                self._entries[j] = value
                updated.append(j)
        return updated

    def advance_after_checkpoint(self) -> int:
        """Increment the owner entry after a checkpoint; return the new interval."""
        self._entries[self._owner] += 1
        return self._entries[self._owner]

    def last_known_checkpoint(self, pid: int) -> int:
        """``last_k_i(pid)`` per Equation (3): ``DV[pid] - 1`` (may be ``-1``)."""
        return self._entries[pid] - 1

    # ------------------------------------------------------------------
    # Equation (2)
    # ------------------------------------------------------------------
    def knows_checkpoint(self, pid: int, checkpoint_index: int) -> bool:
        """True iff ``c_pid^checkpoint_index`` causally precedes this vector's state.

        This is Equation (2) applied with this vector taken as ``DV(c_b^beta)``:
        ``c_a^alpha -> c_b^beta`` iff ``alpha < DV(c_b^beta)[a]``.
        """
        return checkpoint_index < self._entries[pid]

    # ------------------------------------------------------------------
    # Comparisons / mutation helpers for rollback (Algorithm 3)
    # ------------------------------------------------------------------
    def restore(self, entries: Sequence[int]) -> None:
        """Overwrite the entries (used when a rollback recreates ``DV``)."""
        if len(entries) != len(self._entries):
            raise ValueError("cannot restore a vector of a different size")
        if any(v < 0 for v in entries):
            raise ValueError("dependency vector entries must be non-negative")
        self._entries = list(entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyVector):
            return NotImplemented
        return self._entries == other._entries and self._owner == other._owner

    def __hash__(self) -> int:
        return hash((tuple(self._entries), self._owner))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DependencyVector({self._entries}, owner={self._owner})"


def causally_precedes(
    checkpoint_owner: int,
    checkpoint_index: int,
    target_dv: Sequence[int],
) -> bool:
    """Standalone Equation (2) test on raw vectors.

    ``c_a^alpha -> c_b^beta`` iff ``alpha < DV(c_b^beta)[a]`` where
    ``checkpoint_owner = a``, ``checkpoint_index = alpha`` and ``target_dv`` is
    the dependency vector stored with ``c_b^beta``.
    """
    return checkpoint_index < target_dv[checkpoint_owner]
