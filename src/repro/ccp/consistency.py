"""Consistent global checkpoints.

A *global checkpoint* picks one general checkpoint per process; it is
*consistent* iff its members are pairwise consistent, i.e. no member causally
precedes another (Section 2.2).  Netzer & Xu characterise the more general
question of whether a set of checkpoints can be *extended* to a consistent
global checkpoint: that holds iff no zigzag path connects any two of them
(including a checkpoint to itself); under RDT the two notions coincide for
full global checkpoints because every zigzag dependency is causal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, List, Mapping, Tuple

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP


@dataclass(frozen=True)
class GlobalCheckpoint:
    """One general checkpoint per process, identified by index.

    ``indices[pid]`` is the index of the chosen checkpoint of process ``pid``.
    """

    indices: Tuple[int, ...]

    @classmethod
    def of(cls, indices: Mapping[int, int] | List[int] | Tuple[int, ...]) -> "GlobalCheckpoint":
        """Build from a mapping pid->index or a dense sequence of indices.

        A mapping must cover every process id ``0 .. max(pid)``: a global
        checkpoint has exactly one component per process, so a gap in the
        mapping is a caller error (it used to be silently padded with index
        0, which turned typos into wrong consistency answers).  Note the
        constructor cannot know the system's process count, so *trailing*
        omissions (a mapping that stops before the last process) produce a
        smaller checkpoint instead of an error; the size cross-check in
        :func:`is_consistent_global_checkpoint` rejects those against a CCP.
        """
        if isinstance(indices, Mapping):
            if not indices:
                raise ValueError("cannot build a global checkpoint from an empty mapping")
            size = max(indices) + 1
            missing = [pid for pid in range(size) if pid not in indices]
            if missing:
                raise ValueError(
                    "sparse global checkpoint mapping: no index for "
                    f"process(es) {missing}"
                )
            return cls(tuple(indices[pid] for pid in range(size)))
        return cls(tuple(indices))

    @property
    def num_processes(self) -> int:
        """Number of processes covered."""
        return len(self.indices)

    def checkpoint_id(self, pid: int) -> CheckpointId:
        """The member checkpoint of process ``pid``."""
        return CheckpointId(pid, self.indices[pid])

    def members(self) -> Iterator[CheckpointId]:
        """Iterate over all member checkpoints."""
        for pid, index in enumerate(self.indices):
            yield CheckpointId(pid, index)

    def total_index(self) -> int:
        """Sum of member indices (used to compare how 'recent' lines are)."""
        return sum(self.indices)

    def rolled_back_count(self, ccp: CCP) -> int:
        """Number of general checkpoints rolled back if this line is restored.

        For each process, the checkpoints strictly after the chosen component
        (up to and including the volatile one) are rolled back, which is the
        quantity minimised by Definition 5.
        """
        total = 0
        for pid in range(self.num_processes):
            total += ccp.volatile_index(pid) - self.indices[pid]
        return total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "{" + ", ".join(str(cid) for cid in self.members()) + "}"


def is_consistent_global_checkpoint(
    ccp: CCP,
    global_checkpoint: GlobalCheckpoint,
    *,
    method: str = "causal",
) -> bool:
    """Check consistency of a global checkpoint.

    ``method='causal'`` applies the paper's definition (pairwise not causally
    related).  ``method='zigzag'`` applies the Netzer–Xu condition (no zigzag
    path between any two members, including self cycles); under RDT both
    answers agree, which tests exploit.
    """
    if global_checkpoint.num_processes != ccp.num_processes:
        raise ValueError("global checkpoint and CCP cover different process sets")
    members = list(global_checkpoint.members())
    for cid in members:
        if not ccp.has_checkpoint(cid):
            raise KeyError(f"{cid} is not a checkpoint of this CCP")
    if method == "causal":
        for first, second in combinations(members, 2):
            if not ccp.consistent(first, second):
                return False
        return True
    if method == "zigzag":
        analysis = ccp.zigzag
        for first in members:
            for second in members:
                if analysis.zigzag_exists(first, second):
                    return False
        return True
    raise ValueError(f"unknown consistency method {method!r}")


def all_consistent_global_checkpoints(ccp: CCP) -> List[GlobalCheckpoint]:
    """Enumerate every consistent global checkpoint (exponential; tests only)."""
    results: List[GlobalCheckpoint] = []
    limits = [ccp.volatile_index(pid) for pid in ccp.processes]

    def recurse(prefix: List[int], pid: int) -> None:
        if pid == ccp.num_processes:
            candidate = GlobalCheckpoint(tuple(prefix))
            if is_consistent_global_checkpoint(ccp, candidate):
                results.append(candidate)
            return
        for index in range(limits[pid] + 1):
            recurse(prefix + [index], pid + 1)

    recurse([], 0)
    return results
