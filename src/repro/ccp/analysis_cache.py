"""Shared, lazily materialised analyses of one CCP.

Every oracle in the library — zigzag queries, the Theorem-1/2 obsolete
characterisations, recovery-line determination, R-graph reachability — is a
pure function of the pattern, yet historically each consumer rebuilt its own
analysis object per call: the simulator's ``audit="full"`` mode constructed a
fresh :class:`~repro.ccp.zigzag.ZigzagAnalysis` and re-derived the retained
sets at every sampling instant.  :class:`AnalysisCache` is the single home for
those derived structures: one instance hangs off each :class:`~repro.ccp.CCP`
(via :attr:`CCP.analyses <repro.ccp.pattern.CCP.analyses>`) and everything is
computed at most once per pattern.

A CCP is immutable once built, so the cache never needs invalidation at this
level; *live* patterns are handled one layer up by
:class:`repro.simulation.trace.TraceRecorder`, which reuses the same CCP
object (and therefore the same cache) until the recorded execution changes.

Imports of the consumer modules are deferred to call time: this module sits
below :mod:`repro.core.obsolete` and :mod:`repro.recovery.recovery_line` in
the import graph, while their public functions delegate back here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.ccp.checkpoint import CheckpointId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.consistency import GlobalCheckpoint
    from repro.ccp.pattern import CCP
    from repro.ccp.rollback_graph import RollbackDependencyGraph
    from repro.ccp.zigzag import ZigzagAnalysis


class AnalysisCache:
    """Lazily built, shared analyses over one immutable CCP."""

    def __init__(self, ccp: "CCP") -> None:
        self._ccp = ccp
        self._zigzag: Optional["ZigzagAnalysis"] = None
        self._rollback_graph: Optional["RollbackDependencyGraph"] = None
        self._useless: Optional[Tuple[CheckpointId, ...]] = None
        self._theorem1_retained: Optional[FrozenSet[CheckpointId]] = None
        self._theorem2_retained: Optional[FrozenSet[CheckpointId]] = None
        self._recovery_lines: Dict[FrozenSet[int], "GlobalCheckpoint"] = {}

    @property
    def ccp(self) -> "CCP":
        """The pattern these analyses are derived from."""
        return self._ccp

    # ------------------------------------------------------------------
    # Zigzag kernel and R-graph
    # ------------------------------------------------------------------
    @property
    def zigzag(self) -> "ZigzagAnalysis":
        """The bitset zigzag kernel of the pattern."""
        if self._zigzag is None:
            from repro.ccp.zigzag import ZigzagAnalysis

            self._zigzag = ZigzagAnalysis(self._ccp)
        return self._zigzag

    @property
    def rollback_graph(self) -> "RollbackDependencyGraph":
        """The rollback-dependency graph (R-graph) of the pattern."""
        if self._rollback_graph is None:
            from repro.ccp.rollback_graph import RollbackDependencyGraph

            self._rollback_graph = RollbackDependencyGraph(self._ccp)
        return self._rollback_graph

    @property
    def useless_checkpoints(self) -> Tuple[CheckpointId, ...]:
        """Checkpoints on a zigzag cycle (Netzer–Xu uselessness)."""
        if self._useless is None:
            self._useless = tuple(self.zigzag.useless_checkpoints())
        return self._useless

    # ------------------------------------------------------------------
    # Obsolete-checkpoint characterisations (Theorems 1 and 2)
    # ------------------------------------------------------------------
    # The classic computations are batch equivalents of the per-checkpoint
    # transcriptions in repro.core.obsolete (_is_retained_theorem1/2), with
    # the loop-invariant subterms hoisted: the last stable checkpoint of each
    # process (Theorem 1) and the last-known-checkpoint matrix last_k_i(f)
    # (Theorem 2) do not depend on the checkpoint under test, so computing
    # them per checkpoint — as the literal transcription does — made every
    # full audit quadratic in the number of checkpoints.  The
    # equivalence-property tests pin both implementations to the literal
    # statements of the theorems.
    #
    # When the CCP carries an ``analysis_provider`` (a live recorder's
    # knowledge state), the provider's answer is served instead: on pruned
    # histories it is the only authoritative one.  The classic computations
    # answer for hand-built, provider-less patterns and are the reference
    # the tests compare a recorder's view against.

    @property
    def theorem1_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints Theorem 1 still deems necessary."""
        if self._theorem1_retained is None:
            provider = self._ccp.analysis_provider
            self._theorem1_retained = (
                provider.theorem1_retained()
                if provider is not None
                else self._classic_theorem1_retained()
            )
        return self._theorem1_retained

    def _classic_theorem1_retained(self) -> FrozenSet[CheckpointId]:
        # Departed processes are excluded on both sides (see CCP.departed):
        # they can never be faulty again, so their last checkpoints pin
        # nothing and their own checkpoints are all obsolete.
        ccp = self._ccp
        active = ccp.active_processes
        lasts = [
            ccp.last_stable_id(f) for f in active if ccp.last_stable(f) >= 0
        ]
        retained = set()
        for pid in active:
            for cid in ccp.stable_ids(pid):
                successor = CheckpointId(pid, cid.index + 1)
                for last in lasts:
                    if ccp.causally_precedes(
                        last, successor
                    ) and not ccp.causally_precedes(last, cid):
                        retained.add(cid)
                        break
        return frozenset(retained)

    @property
    def theorem2_retained(self) -> FrozenSet[CheckpointId]:
        """Stable checkpoints retained under causal knowledge only (Theorem 2)."""
        if self._theorem2_retained is None:
            provider = self._ccp.analysis_provider
            self._theorem2_retained = (
                provider.theorem2_retained()
                if provider is not None
                else self._classic_theorem2_retained()
            )
        return self._theorem2_retained

    def _classic_theorem2_retained(self) -> FrozenSet[CheckpointId]:
        ccp = self._ccp
        active = ccp.active_processes
        # last_known[i][f]: index of the latest stable checkpoint of p_f in
        # the causal past of p_i's volatile state (-1 if none) — last_k_i(f).
        # Only active observers/subjects matter: departed processes never
        # become faulty again, so knowledge about them retains nothing.
        last_known = {
            observer: {
                f: max(
                    (
                        cid.index
                        for cid in ccp.stable_ids(f)
                        if ccp.causally_precedes(cid, ccp.volatile_id(observer))
                    ),
                    default=-1,
                )
                for f in active
            }
            for observer in active
        }
        retained = set()
        for pid in active:
            known_ids = [
                CheckpointId(f, index)
                for f, index in last_known[pid].items()
                if index >= 0
            ]
            for cid in ccp.stable_ids(pid):
                successor = CheckpointId(pid, cid.index + 1)
                for known in known_ids:
                    if ccp.causally_precedes(
                        known, successor
                    ) and not ccp.causally_precedes(known, cid):
                        retained.add(cid)
                        break
        return frozenset(retained)

    # ------------------------------------------------------------------
    # Recovery lines
    # ------------------------------------------------------------------
    def recovery_line(self, faulty: Iterable[int]) -> "GlobalCheckpoint":
        """The recovery line ``R_F`` (Lemma 1), memoised per faulty set."""
        key = frozenset(faulty)
        cached = self._recovery_lines.get(key)
        if cached is None:
            from repro.recovery.recovery_line import _recovery_line_lemma1

            provider = self._ccp.analysis_provider
            if provider is not None:
                cached = provider.recovery_line(key)
            else:
                cached = _recovery_line_lemma1(self._ccp, key)
            self._recovery_lines[key] = cached
        return cached
