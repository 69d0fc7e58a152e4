"""Rollback-recovery substrate.

The paper assumes "a centralized recovery manager which stops the execution of
non-faulty processes, takes their volatile state, calculates and propagates the
recovery line" (Section 2.4).  This subpackage provides:

* :mod:`recovery_line` — recovery-line determination: the closed-form
  characterisation of Lemma 1 for RD-trackable patterns and an exhaustive
  oracle used to validate it;
* :mod:`rollback_plan` — the per-process directives (rollback index ``RI`` and
  last-interval vector ``LI``) propagated by the manager, exactly the inputs of
  Algorithm 3;
* :mod:`manager` — the centralized recovery manager, which plans from a
  global view of the execution;
* :mod:`local_rule` — each process's directive from its own stable storage
  (the simulator's planner wherever RDT and a safe collector hold), and the
  typed errors of a session that cannot be carried out.
"""

from repro.recovery.local_rule import (
    MissingCheckpointError,
    PlanMismatchError,
    RecoveryError,
    local_rollback,
)
from repro.recovery.manager import RecoveryManager
from repro.recovery.recovery_line import (
    recovery_line,
    recovery_line_brute_force,
    rolled_back_checkpoints,
)
from repro.recovery.rollback_plan import ProcessRollback, RollbackPlan

__all__ = [
    "MissingCheckpointError",
    "PlanMismatchError",
    "ProcessRollback",
    "RecoveryError",
    "RecoveryManager",
    "RollbackPlan",
    "local_rollback",
    "recovery_line",
    "recovery_line_brute_force",
    "rolled_back_checkpoints",
]
