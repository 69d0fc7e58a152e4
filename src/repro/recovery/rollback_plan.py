"""Rollback directives propagated by the recovery manager.

Algorithm 3 of the paper runs at every process that must roll back and takes
two inputs:

* ``RI`` — the index of the checkpoint the process must roll back to (its own
  component of the recovery line);
* ``LI`` — the *last interval vector*: ``LI[j] = last_s(j) + 1`` in the CCP
  defined by the recovery line, i.e. the index of the checkpoint interval each
  process will be executing right after the recovery session.

A process whose recovery-line component is its volatile checkpoint does not
roll back and does not run Algorithm 3; it only releases the ``UC`` entries
allowed by ``LI`` (see :meth:`repro.gc.RdtLgcCollector.on_peer_rollback`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ccp.consistency import GlobalCheckpoint


@dataclass(frozen=True)
class ProcessRollback:
    """The rollback directive for a single process."""

    pid: int
    rollback_index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"p{self.pid} -> s{self.pid}^{self.rollback_index}"


@dataclass(frozen=True)
class RollbackPlan:
    """The complete outcome of recovery-line calculation.

    Attributes
    ----------
    faulty:
        The failed processes that triggered the recovery session.
    recovery_line:
        The computed recovery line ``R_F`` (general checkpoint indices).
    rollbacks:
        One :class:`ProcessRollback` per process whose component in the line is
        a stable checkpoint (i.e. every process that loses work).
    last_interval_vector:
        The ``LI`` vector of Algorithm 3.
    """

    faulty: Tuple[int, ...]
    recovery_line: GlobalCheckpoint
    rollbacks: Tuple[ProcessRollback, ...]
    last_interval_vector: Tuple[int, ...]

    def rollback_for(self, pid: int) -> Optional[ProcessRollback]:
        """The rollback directive of ``pid``, or None if it keeps its volatile state."""
        for rollback in self.rollbacks:
            if rollback.pid == pid:
                return rollback
        return None

    def must_roll_back(self, pid: int) -> bool:
        """True if ``pid`` has to restart from a stable checkpoint."""
        return self.rollback_for(pid) is not None

    def rolled_back_processes(self) -> List[int]:
        """Process ids that must roll back."""
        return [r.pid for r in self.rollbacks]

    def as_dict(self) -> Dict[int, int]:
        """Mapping pid -> rollback index for processes that roll back."""
        return {r.pid: r.rollback_index for r in self.rollbacks}
