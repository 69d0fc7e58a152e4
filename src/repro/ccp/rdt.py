"""Rollback-dependency trackability (RDT) property checker.

Definition 4 of the paper: a CCP is RD-trackable iff for any two checkpoints
``c_i^gamma`` and ``c_j^iota``, a zigzag path from the former to the latter
implies causal precedence (``c_i^gamma ~> c_j^iota  =>  c_i^gamma -> c_j^iota``).

RD-trackable patterns have no useless checkpoints (a zigzag cycle would imply
``c -> c``, which is impossible) and all checkpoint dependencies can be tracked
on-the-fly with transitive dependency vectors (Equation 2).

The checker compares the ground-truth zigzag relation against the ground-truth
causal relation and reports every violating pair, together with a concrete
witness Z-path for diagnostics.  The zigzag pairs come from the kernel;
checkpoint precedence is read from the recorder's knowledge rows
(:meth:`~repro.ccp.incremental.IncrementalAnalysisView.precedes`: ``c_f^m ->
c_i^k`` iff ``row(c_i^k)[f] >= m``), one comparison per pair and no
event-level vector-clock replay.  :meth:`~repro.ccp.pattern.CCP.causally_precedes`
answers the same question from the event graph and is the reference the
tests pin it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP
from repro.ccp.zigzag import ZigzagPath


@dataclass(frozen=True)
class RDTViolation:
    """A pair of checkpoints connected by a zigzag path but not causally related."""

    source: CheckpointId
    target: CheckpointId
    witness: Optional[ZigzagPath] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source} ~> {self.target} but {self.source} -/-> {self.target}"


@dataclass
class RDTReport:
    """Outcome of an RDT check over a CCP."""

    is_rdt: bool
    violations: List[RDTViolation] = field(default_factory=list)
    useless_checkpoints: List[CheckpointId] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.is_rdt


def check_rdt(
    ccp: CCP,
    *,
    collect_witnesses: bool = True,
) -> RDTReport:
    """Check Definition 4 over every ordered pair of general checkpoints.

    Because consistent-cut restrictions of a CCP only remove messages and
    checkpoints, a CCP that passes this check is RD-trackable on every
    consistent cut of the same execution as well, which is the form in which
    the paper states the assumption for RDT checkpointing protocols.
    """
    analysis = ccp.zigzag
    precedes = ccp.analysis_provider.precedes
    violations: List[RDTViolation] = []
    pairs: List[Tuple[CheckpointId, CheckpointId]] = analysis.zigzag_pairs()
    for source, target in pairs:
        if not precedes(source, target):
            witness = analysis.find_zigzag_path(source, target) if collect_witnesses else None
            violations.append(RDTViolation(source, target, witness))
    useless = [v.source for v in violations if v.source == v.target]
    return RDTReport(is_rdt=not violations, violations=violations, useless_checkpoints=useless)
