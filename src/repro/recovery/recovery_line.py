"""Recovery-line determination.

Definition 5: given a CCP and a set ``F`` of faulty processes, the recovery
line ``R_F`` is the consistent global checkpoint that excludes the volatile
checkpoints of faulty processes and minimizes the number of general
checkpoints rolled back.

Lemma 1 (for RD-trackable CCPs) characterises it in closed form: for every
process ``p_i``, take the *last* general checkpoint not causally preceded by
the last stable checkpoint of any faulty process::

    R_F = U_i { c_i^k,  k = max(gamma | for all p_f in F:  s_f^last -/-> c_i^gamma) }

:func:`recovery_line` answers Lemma 1 from the recorder's knowledge view
(``ccp.analysis_provider``, which also refuses a faulty set Lemma 1 does not
cover); ``_recovery_line_lemma1`` transcribes it literally
and :func:`recovery_line_brute_force` implements Definition 5 by exhaustive
search (exponential; used only in tests, the explorer and on the figure-sized
examples).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import (
    GlobalCheckpoint,
    all_consistent_global_checkpoints,
    is_consistent_global_checkpoint,
)
from repro.ccp.pattern import CCP


def recovery_line(ccp: CCP, faulty: Iterable[int]) -> GlobalCheckpoint:
    """The recovery line ``R_F`` per Lemma 1: ``ccp``'s knowledge view answers.

    With an empty faulty set the line is simply every process's volatile
    checkpoint (nothing needs to be rolled back).  The view refuses a faulty
    set outside Lemma 1 and memoises lines per faulty set, so repeated
    queries (e.g. the Definition-7 needlessness oracle, which asks for the
    line of every faulty set) pay for each one only once.
    """
    return ccp.analysis_provider.recovery_line(faulty)


def _recovery_line_lemma1(ccp: CCP, faulty_set: Set[int]) -> GlobalCheckpoint:
    """Lemma 1 by full recompute over checkpoint-level precedence queries.

    The literal reference: :func:`recovery_line` is served from the
    recorder's knowledge view, and the equivalence tests compare that answer
    with this one.
    """
    indices: List[int] = []
    for pid in ccp.processes:
        if pid in ccp.departed:
            # A departed process holds no state to roll back: its component
            # is pinned to the volatile index so recovery never touches it.
            indices.append(ccp.volatile_index(pid))
            continue
        chosen = 0
        for gamma in range(ccp.volatile_index(pid) + 1):
            candidate = CheckpointId(pid, gamma)
            preceded = any(
                ccp.causally_precedes(ccp.last_stable_id(f), candidate)
                for f in faulty_set
            )
            if not preceded:
                chosen = gamma
        indices.append(chosen)
    return GlobalCheckpoint(tuple(indices))


def recovery_line_brute_force(ccp: CCP, faulty: Iterable[int]) -> GlobalCheckpoint:
    """Definition 5 by exhaustive search over all consistent global checkpoints.

    Exponential in the number of checkpoints; intended for tests and the small
    hand-built patterns of the paper's figures.  Ties on the number of rolled
    back checkpoints are broken by preferring the componentwise largest line,
    which for RD-trackable patterns never actually occurs because the line is
    unique (the uniqueness is asserted by tests, not here).  It checks
    nothing beyond Definition 5: a faulty process without a stable
    checkpoint leaves no candidate, a ValueError.
    """
    faulty_set = set(faulty)
    best: Optional[GlobalCheckpoint] = None
    best_rolled_back: Optional[int] = None
    for candidate in all_consistent_global_checkpoints(ccp):
        excluded = False
        for pid in faulty_set:
            if candidate.indices[pid] >= ccp.volatile_index(pid):
                excluded = True
                break
        if excluded:
            continue
        rolled_back = candidate.rolled_back_count(ccp)
        if best_rolled_back is None or rolled_back < best_rolled_back:
            best, best_rolled_back = candidate, rolled_back
        elif rolled_back == best_rolled_back and best is not None:
            if candidate.indices > best.indices:
                best = candidate
    if best is None:
        raise ValueError("no consistent global checkpoint avoids the faulty volatile states")
    return best


def rolled_back_checkpoints(ccp: CCP, line: GlobalCheckpoint) -> List[CheckpointId]:
    """The general checkpoints discarded when the system restarts from ``line``."""
    rolled: List[CheckpointId] = []
    for pid in ccp.processes:
        for gamma in range(line.indices[pid] + 1, ccp.volatile_index(pid) + 1):
            rolled.append(CheckpointId(pid, gamma))
    return rolled


def is_valid_recovery_line(
    ccp: CCP, line: GlobalCheckpoint, faulty: Iterable[int]
) -> bool:
    """Check that ``line`` is consistent and excludes faulty volatile states."""
    faulty_set = set(faulty)
    for pid in faulty_set:
        if line.indices[pid] >= ccp.volatile_index(pid):
            return False
    return is_consistent_global_checkpoint(ccp, line)
