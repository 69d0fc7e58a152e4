"""The paper's contribution: RDT-LGC's bookkeeping and the oracles that judge it.

RDT-LGC runs as :class:`repro.gc.RdtLgcCollector`, built from the pieces below.

Modules
-------
``ccb``
    The Checkpoint Control Block (CCB) record of Algorithm 1.
``uncollected``
    The ``UC`` (Uncollected Checkpoints) table with the ``release`` / ``link``
    / ``newCCB`` procedures of Algorithm 1.
``rollback``
    The ``UC`` assignment Algorithm 3 computes after a rollback.
``obsolete``
    Oracles for the paper's characterisations: Definition 7 (needlessness, by
    exhaustive search), Theorem 1 (obsolete from global knowledge), Theorem 2 /
    Corollary 1 (obsolete from causal knowledge).
``optimality``
    The auditor that checks, against the oracles, that a garbage collector is
    safe (Theorem 4) and optimal (Theorem 5).
"""

from repro.core.ccb import CheckpointControlBlock
from repro.core.obsolete import (
    needless_stable_checkpoints,
    obsolete_stable_checkpoints_corollary1,
    obsolete_stable_checkpoints_theorem1,
    obsolete_stable_checkpoints_theorem2,
    retained_stable_checkpoints_theorem1,
    retained_stable_checkpoints_theorem2,
)
from repro.core.optimality import GcAudit, audit_garbage_collection
from repro.core.uncollected import UncollectedTable

__all__ = [
    "CheckpointControlBlock",
    "GcAudit",
    "UncollectedTable",
    "audit_garbage_collection",
    "needless_stable_checkpoints",
    "obsolete_stable_checkpoints_corollary1",
    "obsolete_stable_checkpoints_theorem1",
    "obsolete_stable_checkpoints_theorem2",
    "retained_stable_checkpoints_theorem1",
    "retained_stable_checkpoints_theorem2",
]
