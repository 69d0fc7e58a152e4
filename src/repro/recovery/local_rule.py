"""Each process's part of a recovery line, read from its own stable storage.

Lemma 1's line for a faulty set ``F`` depends only on causal precedence,
and under RDT the dependency vector stored with a checkpoint answers it:
``s_f^m -> c`` iff ``dv(c)[f] > m``.  So with ``bound(f)`` the last stable
index of each faulty ``f``, process ``p``'s component is its last general
checkpoint whose vector has ``dv[f] <= bound(f)`` for every ``f`` in ``F``:
its volatile checkpoint when its current vector already passes (no
rollback), else the last stable checkpoint that passes.  Stored vectors
only grow along a process's history, so the checkpoints that pass are a
prefix of it, and Theorem 4 says the last of them is still on stable
storage under a collector that keeps every recovery-line member.  That is
the knowledge the paper's middleware has: ``|F|`` integers and each
process's own storage, no global history.

The rule holds only where both premises do — an RDT pattern and a safe
collector.  Elsewhere a checkpoint the line needs may be gone, and the
rule would silently restore an older one; the view's plan
(:meth:`~repro.recovery.manager.RecoveryManager.plan`) then decides, and
:class:`MissingCheckpointError` reports a line the storage cannot serve.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple


class RecoveryError(RuntimeError):
    """A recovery session that cannot be carried out as planned."""


class MissingCheckpointError(RecoveryError):
    """A recovery line needs a checkpoint its collector eliminated."""

    def __init__(self, pid: int, index: int, collector: str) -> None:
        super().__init__(
            f"the recovery line needs checkpoint s{pid}^{index}, which is not on "
            f"stable storage: collector {collector!r} eliminated it"
        )
        self.pid, self.index, self.collector = pid, index, collector


class PlanMismatchError(RecoveryError):
    """The plan read from stable storage differs from the recorded history's."""


def local_rollback(
    retained: Mapping[int, Sequence[int]],
    current: Sequence[int],
    bounds: Mapping[int, int],
) -> Optional[int]:
    """One process's directive for the faulty set whose last stable indices are ``bounds``.

    ``retained`` maps the index of each checkpoint the process holds on
    stable storage to the vector stored with it, and ``current`` is its
    current vector.  None when the current vector has ``dv[f] <= bounds[f]``
    for every faulty ``f`` (the process keeps its volatile state); otherwise
    the index of the last retained checkpoint whose stored vector meets the
    same test.  A :class:`RecoveryError` when none does.  ``retained`` is
    read only when the current vector fails.
    """
    tests = tuple(bounds.items())
    if _passes(current, tests):
        return None
    for index in sorted(retained, reverse=True):
        if _passes(retained[index], tests):
            return index
    raise RecoveryError(
        f"no retained checkpoint is free of the faulty intervals after {dict(bounds)}"
    )


def _passes(vector: Sequence[int], tests: Tuple[Tuple[int, int], ...]) -> bool:
    """``vector[f] <= bound`` for every ``(f, bound)`` of ``tests``."""
    for f, bound in tests:
        if vector[f] > bound:
            return False
    return True
