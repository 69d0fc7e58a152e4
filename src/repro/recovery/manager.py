"""Centralized recovery manager (Section 2.4).

The manager embodies the paper's recovery assumption: when failures occur, it
stops the execution of non-faulty processes, observes the global CCP, computes
the recovery line and propagates, to every process, its rollback index and the
last-interval vector ``LI`` consumed by Algorithm 3.

Lemma 1 reads causal precedence among checkpoints only, so the manager
observes the recorded pattern through the recorder's knowledge view — no
CCP snapshot and no volatile vector: the plan is a pure function of the
recorded execution.  Applying it to live simulated processes is the job of
:mod:`repro.simulation`.
"""

from __future__ import annotations

from typing import Iterable

from repro.ccp.incremental import IncrementalAnalysisView
from repro.recovery.rollback_plan import RollbackPlan


class RecoveryManager:
    """Computes rollback plans from a global view of the execution."""

    def plan(self, view: IncrementalAnalysisView, faulty: Iterable[int]) -> RollbackPlan:
        """Compute the recovery line ``R_F`` and the per-process directives.

        ``view`` is the recorder's knowledge view at the crash instant; it
        refuses a faulty set Lemma 1 does not cover.
        """
        faulty_tuple = tuple(sorted(set(faulty)))
        return RollbackPlan.of_line(
            faulty_tuple, view.recovery_line(faulty_tuple), view.checkpoints_taken
        )
