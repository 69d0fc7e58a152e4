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

from typing import Iterable, List

from repro.ccp.incremental import IncrementalAnalysisView
from repro.recovery.rollback_plan import ProcessRollback, RollbackPlan


class RecoveryManager:
    """Computes rollback plans from a global view of the execution."""

    def plan(self, view: IncrementalAnalysisView, faulty: Iterable[int]) -> RollbackPlan:
        """Compute the recovery line ``R_F`` and the per-process directives.

        ``view`` is the recorder's knowledge view at the crash instant; it
        refuses a faulty set Lemma 1 does not cover.
        """
        faulty_tuple = tuple(sorted(set(faulty)))
        line = view.recovery_line(faulty_tuple)
        taken = view.checkpoints_taken
        rollbacks: List[ProcessRollback] = []
        last_interval: List[int] = []
        for pid, component in enumerate(line.indices):
            if component < taken[pid]:
                # The component is a stable checkpoint: the process rolls back
                # to it, and its next interval is component + 1.
                rollbacks.append(ProcessRollback(pid=pid, rollback_index=component))
                last_interval.append(component + 1)
            else:
                # The component is the volatile checkpoint: no rollback, the
                # process keeps executing interval last_s + 1 == component.
                last_interval.append(component)
        return RollbackPlan(
            faulty=faulty_tuple,
            recovery_line=line,
            rollbacks=tuple(rollbacks),
            last_interval_vector=tuple(last_interval),
        )
