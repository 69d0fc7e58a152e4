"""Shared, lazily materialised analyses of one CCP.

Every oracle in the library — zigzag queries, the Theorem-1/2 obsolete
characterisations, recovery-line determination — is a
pure function of the pattern, yet historically each consumer rebuilt its own
analysis object per call: the simulator's ``audit="full"`` mode constructed a
fresh :class:`~repro.ccp.zigzag.ZigzagAnalysis` and re-derived the retained
sets at every sampling instant.  :class:`AnalysisCache` is the single home for
those derived structures: one instance hangs off each :class:`~repro.ccp.CCP`
(via :attr:`CCP.analyses <repro.ccp.pattern.CCP.analyses>`) and everything is
computed at most once per pattern.

The Theorem-1/2 retained sets and the Lemma-1 recovery lines are answered by
the pattern's ``analysis_provider`` — the knowledge view of the
:class:`repro.simulation.trace.TraceRecorder` the pattern came from (see
:mod:`repro.ccp.incremental`) — and memoised here.  The literal
transcriptions of the theorems (:mod:`repro.core.obsolete`,
:mod:`repro.recovery.recovery_line`) are the reference the equivalence tests
and the explorer's cross-check compare those answers with; nothing here
calls them.

A CCP is immutable once built, so the cache never needs invalidation at this
level; *live* patterns are handled one layer up by the recorder, which reuses
the same CCP object (and therefore the same cache) until the recorded
execution changes.

Imports of the analysis modules are deferred to call time: this module sits
below them in the import graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.ccp.checkpoint import CheckpointId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.consistency import GlobalCheckpoint
    from repro.ccp.pattern import CCP
    from repro.ccp.zigzag import ZigzagAnalysis


class AnalysisCache:
    """Lazily built, shared analyses over one immutable CCP."""

    def __init__(self, ccp: "CCP") -> None:
        self._ccp = ccp
        self._zigzag: Optional["ZigzagAnalysis"] = None
        self._useless: Optional[Tuple[CheckpointId, ...]] = None
        self._theorem1_retained: Optional[FrozenSet[CheckpointId]] = None
        self._theorem2_retained: Optional[FrozenSet[CheckpointId]] = None
        self._recovery_lines: Dict[FrozenSet[int], "GlobalCheckpoint"] = {}

    @property
    def ccp(self) -> "CCP":
        """The pattern these analyses are derived from."""
        return self._ccp

    # ------------------------------------------------------------------
    # Zigzag kernel
    # ------------------------------------------------------------------
    @property
    def zigzag(self) -> "ZigzagAnalysis":
        """The bitset zigzag kernel of the pattern."""
        if self._zigzag is None:
            from repro.ccp.zigzag import ZigzagAnalysis

            self._zigzag = ZigzagAnalysis(self._ccp)
        return self._zigzag

    @property
    def useless_checkpoints(self) -> Tuple[CheckpointId, ...]:
        """Checkpoints on a zigzag cycle (Netzer–Xu uselessness)."""
        if self._useless is None:
            self._useless = tuple(self.zigzag.useless_checkpoints())
        return self._useless

    # ------------------------------------------------------------------
    # Obsolete-checkpoint characterisations (Theorems 1 and 2)
    # ------------------------------------------------------------------
    @property
    def theorem1_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints Theorem 1 still deems necessary."""
        if self._theorem1_retained is None:
            self._theorem1_retained = self._ccp.analysis_provider.theorem1_retained()
        return self._theorem1_retained

    @property
    def theorem2_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints retained under causal knowledge only (Theorem 2)."""
        if self._theorem2_retained is None:
            self._theorem2_retained = self._ccp.analysis_provider.theorem2_retained()
        return self._theorem2_retained

    # ------------------------------------------------------------------
    # Recovery lines
    # ------------------------------------------------------------------
    def recovery_line(self, faulty: Iterable[int]) -> "GlobalCheckpoint":
        """The recovery line ``R_F`` (Lemma 1), memoised per faulty set."""
        key = frozenset(faulty)
        cached = self._recovery_lines.get(key)
        if cached is None:
            cached = self._ccp.analysis_provider.recovery_line(key)
            self._recovery_lines[key] = cached
        return cached
