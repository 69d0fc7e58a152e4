"""Safety and optimality audits for garbage collectors.

The paper proves two properties of RDT-LGC:

* **Safety** (Theorem 4): every eliminated checkpoint is obsolete — i.e. the
  retained set always contains every checkpoint that Theorem 1 still deems
  necessary;
* **Optimality** (Theorem 5): every checkpoint identifiable as obsolete from
  causal knowledge alone (Theorem 2) has been eliminated.

:func:`audit_garbage_collection` checks both against the Theorem-1/2
retained sets, given the recorder's knowledge view at some instant and the
per-process sets of stable checkpoints actually retained at that instant.
Both theorems are statements about causal precedence among checkpoints, so
the audit needs no CCP snapshot and no volatile vector: the view answers
from its knowledge rows, and the literal transcriptions of
:mod:`repro.core.obsolete` are the reference it is tested against.  It is
used by property-based tests, by the simulator's and the live backend's
self-checking mode, by the explorer's oracles and by the optimality benchmark
(CLAIM-OPT in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.incremental import IncrementalAnalysisView


@dataclass
class GcAudit:
    """Outcome of auditing one instant of one execution."""

    safety_violations: List[CheckpointId] = field(default_factory=list)
    optimality_violations: List[CheckpointId] = field(default_factory=list)

    @property
    def is_safe(self) -> bool:
        """True if every checkpoint required by Theorem 1 is still retained."""
        return not self.safety_violations

    @property
    def is_optimal(self) -> bool:
        """True if every Theorem-2-obsolete checkpoint has been eliminated."""
        return not self.optimality_violations

    @property
    def ok(self) -> bool:
        """True if the collector is both safe and optimal at this instant."""
        return self.is_safe and self.is_optimal


def audit_garbage_collection(
    view: IncrementalAnalysisView,
    retained: Mapping[int, Iterable[int]],
    *,
    require_optimality: bool = True,
) -> GcAudit:
    """Audit the retained checkpoint sets of every process against the oracles.

    Parameters
    ----------
    view:
        The recorder's knowledge view at the instant being audited
        (``recorder.knowledge_view()``, or ``ccp.analysis_provider``).
    retained:
        Mapping ``pid -> iterable of stable checkpoint indices`` currently on
        that process's stable storage.
    require_optimality:
        When False only the safety check is performed (useful for auditing
        non-optimal baselines such as the no-GC or coordinated collectors).
    """
    retained_ids = {
        CheckpointId(pid, index) for pid, indices in retained.items() for index in indices
    }
    # The knowledge view memoises the retained sets: auditing several
    # collectors (or several labels) against the same instant computes the
    # Theorem-1/2 characterisations once.
    audit = GcAudit(safety_violations=sorted(view.theorem1_retained() - retained_ids))
    if require_optimality:
        audit.optimality_violations = sorted(retained_ids - view.theorem2_retained())
    return audit
