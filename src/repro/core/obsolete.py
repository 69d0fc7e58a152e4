"""Oracles for the paper's characterisations of obsolete checkpoints.

These functions operate on a *global* view of the execution (a
:class:`repro.ccp.CCP`) and implement, literally, the conditions stated in the
paper.  They are never used by the online algorithm (which only has causal
knowledge); they exist to validate it:

* :func:`needless_stable_checkpoints` — Definition 7, by exhaustive search over
  all ``2^n`` faulty sets (Lemma 3: needless == obsolete).
* :func:`obsolete_stable_checkpoints_theorem1` — Theorem 1: ``s_i^gamma`` is
  obsolete iff there is no ``p_f`` with ``s_f^last -> c_i^{gamma+1}`` and
  ``s_f^last -/-> s_i^gamma``.
* :func:`obsolete_stable_checkpoints_theorem2` — Theorem 2: the weakened,
  causal-knowledge-only sufficient condition (``s_f^last`` replaced by the last
  checkpoint of ``p_f`` known to ``p_i``).
* :func:`obsolete_stable_checkpoints_corollary1` — Corollary 1: the same
  condition expressed purely over dependency vectors, evaluated on the vectors
  attached to the CCP (recorded by the middleware or ground truth).

The expected relationships (Theorem 2 obsolete  ⊆  Theorem 1 obsolete  ==
needless) are asserted by the test suite, not here.

The public Theorem-1/2 functions are the complements of the retained sets
the pattern's knowledge view answers (``ccp.analysis_provider``, see
:mod:`repro.ccp.incremental`), which memoises them.  The literal
per-checkpoint transcriptions (``_is_retained_theorem1``,
``_last_known_checkpoint``, ``_is_retained_theorem2``) are the other answer:
executable statements of the theorems over checkpoint-level causal
precedence, which the equivalence tests and the explorer's kernel
cross-check compare the view with, and which the perf benchmark measures as
the old path.  Like the view they exclude departed processes on both sides
(see ``CCP.departed``).
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, List, Set

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP
from repro.recovery.recovery_line import recovery_line


# ----------------------------------------------------------------------
# Definition 7 — needlessness (exhaustive)
# ----------------------------------------------------------------------
def _all_faulty_sets(ccp: CCP) -> Iterable[Set[int]]:
    # Departed processes hold no state and can never fail, so faulty sets
    # range over the active membership only.
    pids = [pid for pid in ccp.active_processes if ccp.last_stable(pid) >= 0]
    return (set(c) for c in chain.from_iterable(
        combinations(pids, size) for size in range(1, len(pids) + 1)
    ))


def needless_stable_checkpoints(ccp: CCP, *, singletons_only: bool = False) -> Set[CheckpointId]:
    """Stable checkpoints that belong to no recovery line of the current cut.

    ``singletons_only=True`` restricts the search to single-failure sets,
    which by Lemma 2 yields the same answer; the default exhaustive mode is
    kept so tests can validate Lemma 2 itself.  Exponential in ``n`` when
    exhaustive — use on small patterns only.
    """
    needed: Set[CheckpointId] = set()
    faulty_sets: Iterable[Set[int]]
    if singletons_only:
        faulty_sets = (
            {pid} for pid in ccp.active_processes if ccp.last_stable(pid) >= 0
        )
    else:
        faulty_sets = _all_faulty_sets(ccp)
    for faulty in faulty_sets:
        line = recovery_line(ccp, faulty)
        for pid in ccp.processes:
            cid = CheckpointId(pid, line.indices[pid])
            if ccp.is_stable(cid):
                needed.add(cid)
    all_stable = {
        cid for pid in ccp.processes for cid in ccp.stable_ids(pid)
    }
    return all_stable - needed


# ----------------------------------------------------------------------
# Theorem 1 — obsolete from global knowledge
# ----------------------------------------------------------------------
def _is_retained_theorem1(ccp: CCP, cid: CheckpointId) -> bool:
    if cid.pid in ccp.departed:
        return False
    successor = CheckpointId(cid.pid, cid.index + 1)
    for f in ccp.active_processes:
        if ccp.last_stable(f) < 0:
            continue
        last = ccp.last_stable_id(f)
        if ccp.causally_precedes(last, successor) and not ccp.causally_precedes(last, cid):
            return True
    return False


def obsolete_stable_checkpoints_theorem1(ccp: CCP) -> Set[CheckpointId]:
    """Theorem 1: the exact set of obsolete stable checkpoints.

    The complement of ``ccp.analysis_provider.theorem1_retained()``, the
    checkpoints every correct GC must retain.
    """
    all_stable = {cid for pid in ccp.processes for cid in ccp.stable_ids(pid)}
    return all_stable - ccp.analysis_provider.theorem1_retained()


# ----------------------------------------------------------------------
# Theorem 2 — obsolete from causal knowledge only
# ----------------------------------------------------------------------
def _last_known_checkpoint(ccp: CCP, observer: int, subject: int) -> int:
    """``last_k_observer(subject)``: latest stable checkpoint of ``subject``
    known to ``observer``."""
    volatile = ccp.volatile_id(observer)
    best = -1
    for cid in ccp.stable_ids(subject):
        if ccp.causally_precedes(cid, volatile) and cid.index > best:
            best = cid.index
    return best


def _is_retained_theorem2(ccp: CCP, cid: CheckpointId) -> bool:
    if cid.pid in ccp.departed:
        return False
    successor = CheckpointId(cid.pid, cid.index + 1)
    for f in ccp.active_processes:
        last_known = _last_known_checkpoint(ccp, cid.pid, f)
        if last_known < 0:
            continue
        known = CheckpointId(f, last_known)
        if ccp.causally_precedes(known, successor) and not ccp.causally_precedes(known, cid):
            return True
    return False


def obsolete_stable_checkpoints_theorem2(ccp: CCP) -> Set[CheckpointId]:
    """Theorem 2: checkpoints identifiable as obsolete using causal knowledge only.

    This is exactly the set an *optimal* asynchronous garbage collector must
    have eliminated (Theorem 5); it is a subset of the Theorem 1 set, and
    the complement of ``ccp.analysis_provider.theorem2_retained()``, the
    checkpoints an optimal asynchronous GC is allowed (and expected) to keep.
    """
    all_stable = {cid for pid in ccp.processes for cid in ccp.stable_ids(pid)}
    return all_stable - ccp.analysis_provider.theorem2_retained()


# ----------------------------------------------------------------------
# Corollary 1 — the dependency-vector formulation
# ----------------------------------------------------------------------
def obsolete_stable_checkpoints_corollary1(ccp: CCP) -> Set[CheckpointId]:
    """Corollary 1, evaluated on the dependency vectors attached to the CCP.

    ``s_i^gamma`` is obsolete if there is no process ``p_f`` with
    ``DV(v_i)[f] == DV(c_i^{gamma+1})[f]`` and ``DV(v_i)[f] > DV(s_i^gamma)[f]``.
    For RDT executions this coincides with Theorem 2, which tests verify.
    """
    obsolete: Set[CheckpointId] = set()
    for pid in ccp.processes:
        volatile_dv = ccp.dv(ccp.volatile_id(pid))
        stable = ccp.stable_ids(pid)
        for cid in stable:
            successor = CheckpointId(pid, cid.index + 1)
            successor_dv = ccp.dv(successor)
            own_dv = ccp.dv(cid)
            retained = any(
                volatile_dv[f] == successor_dv[f] and volatile_dv[f] > own_dv[f]
                for f in ccp.processes
            )
            if not retained:
                obsolete.add(cid)
    return obsolete


def obsolete_per_process(ccp: CCP, obsolete: Set[CheckpointId]) -> List[List[int]]:
    """Group a set of obsolete checkpoints by process (helper for reports)."""
    grouped: List[List[int]] = [[] for _ in ccp.processes]
    for cid in obsolete:
        grouped[cid.pid].append(cid.index)
    for indices in grouped:
        indices.sort()
    return grouped
