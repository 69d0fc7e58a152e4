"""The recovery-session computation of RDT-LGC (Algorithm 3).

After a rollback, :class:`repro.gc.RdtLgcCollector` rebuilds its ``UC`` table
from this: given the checkpoints still on stable storage (with their stored
dependency vectors), the process's recreated dependency vector and the
reference vector (the last-interval vector ``LI`` from the recovery manager,
or the recreated ``DV`` itself in the uncoordinated case), determine which
stored checkpoint each ``UC`` entry must reference.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.storage.stable import StableStorage


def retention_boundary(
    storage: StableStorage,
    volatile_dv: Sequence[int],
    f: int,
    last_interval: int,
) -> Optional[int]:
    """Algorithm 3, line 9, for a single process ``p_f``.

    Returns the index ``gamma`` of the stored checkpoint that must be retained
    because of ``p_f``: the last stored checkpoint whose dependency on ``p_f``
    is still below ``last_interval`` while the *next* general checkpoint
    (the next stored one, or the volatile state for the most recent) already
    depends on ``p_f``'s checkpoint ``last_interval - 1``.  Returns ``None``
    when ``p_f`` denies nothing.

    Intermediate checkpoints eliminated by earlier garbage collection are
    handled by taking the next *stored* checkpoint as the successor: the
    dependency entries are monotone along a process's checkpoints and a
    previously collected checkpoint can never be the one Theorem 1 mandates
    (obsolete checkpoints stay obsolete across rollbacks, Lemma 3).
    """
    if last_interval <= 0:
        return None
    stored = storage.retained_indices()
    for position, gamma in enumerate(stored):
        stored_dv = storage.get(gamma).dependency_vector
        if stored_dv[f] >= last_interval:
            return None
        if position + 1 < len(stored):
            next_dv: Sequence[int] = storage.get(stored[position + 1]).dependency_vector
        else:
            next_dv = volatile_dv
        if next_dv[f] >= last_interval:
            return gamma
    return None


def retention_assignments(
    storage: StableStorage,
    volatile_dv: Sequence[int],
    reference_vector: Sequence[int],
) -> Dict[int, int]:
    """The full ``UC`` assignment of Algorithm 3 (lines 8-14).

    Returns a mapping ``f -> gamma`` for every entry that must reference a
    stored checkpoint; entries absent from the mapping become ``Null``.
    """
    assignments: Dict[int, int] = {}
    for f, last_interval in enumerate(reference_vector):
        gamma = retention_boundary(storage, volatile_dv, f, last_interval)
        if gamma is not None:
            assignments[f] = gamma
    return assignments
