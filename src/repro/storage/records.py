"""Records kept on simulated stable storage."""

from __future__ import annotations

from typing import Any, NamedTuple, Tuple


class StoredCheckpoint(NamedTuple):
    """A stable checkpoint as written to stable storage.

    A ``NamedTuple`` (built in C), so it equals a plain tuple of the same
    values; no container in the library mixes the two.

    Attributes
    ----------
    pid, index:
        Identity of the checkpoint (``s_pid^index``).
    dependency_vector:
        The dependency vector stored together with the checkpoint "for
        recovery purposes" (Section 4.2).
    payload:
        The application state snapshot.  The algorithms never look inside it;
        it is carried so examples can demonstrate end-to-end recovery.
    forced:
        Whether the checkpoint was forced by the protocol.
    time:
        Simulated time at which the checkpoint was written.
    size:
        Nominal size (in abstract units) used by storage-occupancy metrics.
    """

    pid: int
    index: int
    dependency_vector: Tuple[int, ...]
    payload: Any = None
    forced: bool = False
    time: float = 0.0
    size: int = 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"s{self.pid}^{self.index}"
