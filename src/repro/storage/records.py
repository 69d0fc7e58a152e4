"""Records kept on simulated stable storage."""

from __future__ import annotations

from typing import NamedTuple, Tuple


class StoredCheckpoint(NamedTuple):
    """A stable checkpoint as written to stable storage.

    A ``NamedTuple`` (built in C), so it equals a plain tuple of the same
    values; no container in the library mixes the two.  It holds what
    recovery reads back (Algorithm 3 restores the dependency vector stored
    with the rollback target) and what the trace records of it.

    Attributes
    ----------
    pid, index:
        Identity of the checkpoint (``s_pid^index``).
    dependency_vector:
        The dependency vector stored together with the checkpoint "for
        recovery purposes" (Section 4.2).
    forced:
        Whether the checkpoint was forced by the protocol.
    time:
        Simulated time at which the checkpoint was written.
    """

    pid: int
    index: int
    dependency_vector: Tuple[int, ...]
    forced: bool = False
    time: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"s{self.pid}^{self.index}"
