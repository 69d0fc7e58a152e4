"""Checkpoint identities and records (Section 2.2 of the paper).

A *stable* checkpoint ``s_i^gamma`` is a local checkpoint written to stable
storage; the *volatile* checkpoint ``v_i`` is the current in-memory state of a
process.  The paper unifies both under the notion of a *general checkpoint*
``c_i^gamma`` (Equation 1):

    c_i^gamma = s_i^gamma            if gamma <= last_s(i)
    c_i^gamma = v_i                  if gamma == last_s(i) + 1

A *checkpoint interval* ``I_i^gamma`` is the set of events executed by ``p_i``
between ``c_i^{gamma-1}`` (inclusive) and ``c_i^gamma`` (exclusive).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple


class CheckpointKind(enum.Enum):
    """Whether a general checkpoint is on stable storage or still volatile."""

    STABLE = "stable"
    VOLATILE = "volatile"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CheckpointId(NamedTuple):
    """Identifies a general checkpoint ``c_pid^index``.

    A ``NamedTuple`` (built, hashed and compared in C), so it equals a plain
    tuple of the same values; no container in the library mixes the two.
    """

    pid: int
    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"c{self.pid}^{self.index}"

    def predecessor(self) -> "CheckpointId":
        """The previous checkpoint of the same process (index - 1)."""
        if self.index == 0:
            raise ValueError(f"{self} has no predecessor")
        return CheckpointId(self.pid, self.index - 1)

    def successor(self) -> "CheckpointId":
        """The next checkpoint of the same process (index + 1)."""
        return CheckpointId(self.pid, self.index + 1)


@dataclass(frozen=True)
class Checkpoint:
    """A general checkpoint of a CCP.

    Attributes
    ----------
    pid, index:
        Identity (``c_pid^index``).
    kind:
        STABLE for ``s_i^gamma`` with ``gamma <= last_s(i)``; VOLATILE for the
        single ``v_i`` per process.
    dependency_vector:
        The DV stored with a stable checkpoint when it was taken; ``None``
        for the volatile checkpoint (a pattern records no volatile vector —
        :meth:`repro.ccp.pattern.CCP.dv` answers its ground truth) and when
        the CCP was built without dependency tracking.
    event_seq:
        For stable checkpoints, the sequence number of the CHECKPOINT event
        that took it.  ``None`` for volatile checkpoints (they sit after the
        last recorded event).
    forced:
        Whether the checkpoint was forced by the communication-induced
        protocol (informational; GC does not distinguish basic from forced).
    time:
        Simulated time at which the checkpoint was taken (informational).
    """

    pid: int
    index: int
    kind: CheckpointKind
    dependency_vector: Optional[Tuple[int, ...]] = None
    event_seq: Optional[int] = None
    forced: bool = False
    time: float = 0.0

    @property
    def checkpoint_id(self) -> CheckpointId:
        """The :class:`CheckpointId` of this checkpoint."""
        return CheckpointId(self.pid, self.index)

    @property
    def is_stable(self) -> bool:
        """True if this checkpoint lives on stable storage."""
        return self.kind is CheckpointKind.STABLE

    @property
    def is_volatile(self) -> bool:
        """True if this checkpoint is the process's current volatile state."""
        return self.kind is CheckpointKind.VOLATILE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_volatile:
            return f"v{self.pid}"
        return f"s{self.pid}^{self.index}"
