"""Domain coverage signals that guide the schedule fuzzer.

Classic fuzzers count branch edges; this one counts *checkpoint-pattern
structure*.  Every violation-free execution is abstracted into a small set
of **features** — hashable tuples naming a structural phenomenon the
execution exhibited — and an input is *interesting* (kept in the corpus,
mutated further) exactly when it exhibits a feature no earlier execution
did.  The dimensions, all computed from the analyses the oracle stack
already builds (so observation is nearly free):

* ``zz`` — zigzag-path shapes: one feature per zigzag pair, abstracted to
  (source pid, target pid, bucketed index delta) so a *shape* is novel, not
  every concrete pair;
* ``scc`` — the zigzag kernel's condensation: how many non-trivial strongly
  connected components its interval graph has (each one a knot of zigzag
  cycles) and how large the biggest one is;
* ``useless`` — how many checkpoints lie on zigzag cycles (Netzer–Xu
  useless checkpoints), bucketed;
* ``ret`` — retained-set sizes: the Theorem-1 and Theorem-2 retained-set
  cardinalities, bucketed, plus what the collector actually kept;
* ``rl`` — recovery-line depth per recovery session: how many processes
  rolled back and how many general checkpoints were lost;
* ``pend`` — messages still in flight at the end (drop/delay mutations
  reach states exhaustive exploration orders differently).

Buckets deliberately coarsen counts (exact 0/1/2/3, then ranges) so the
feature space stays small enough that novelty means *structure*, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.runner import SimulationRunner

#: One coverage feature: a dimension tag followed by small integers.
Feature = Tuple[object, ...]


def bucket(count: int) -> int:
    """Coarsen a non-negative count into a small stable bucket id.

    Exact for 0-3, then 4-5 -> 4, 6-8 -> 5, 9-13 -> 6, 14+ -> 7.

    Args:
        count: the non-negative count to coarsen.

    Returns:
        A bucket id in ``range(8)``.
    """
    if count <= 3:
        return count
    if count <= 5:
        return 4
    if count <= 8:
        return 5
    if count <= 13:
        return 6
    return 7


def state_features(runner: "SimulationRunner") -> FrozenSet[Feature]:
    """Extract the coverage features of one final execution state.

    Args:
        runner: the runner of a completed, violation-free execution (the
            ``state_probe`` argument of
            :meth:`repro.explore.ScheduleExecutor.execute` supplies it).

    Returns:
        The frozen feature set of the execution (see the module docstring
        for the dimensions).
    """
    ccp = runner.trace.ccp()
    zigzag = ccp.zigzag
    view = ccp.analysis_provider
    features: Set[Feature] = set()

    # Zigzag-path shapes.
    pairs = zigzag.zigzag_pairs()
    for source, target in pairs:
        delta = target.index - source.index
        clamped = max(-3, min(3, delta))
        features.add(("zz", source.pid, target.pid, clamped))
    if not pairs:
        features.add(("zz", "none"))

    # Zigzag-kernel condensation signature.
    nontrivial = zigzag.cycle_component_sizes()
    features.add(
        ("scc", bucket(len(nontrivial)), bucket(max(nontrivial, default=0)))
    )

    # Useless (zigzag-cycle) checkpoints.
    features.add(("useless", bucket(len(zigzag.useless_checkpoints()))))

    # Retained-set sizes: the theorems' characterisations and what the
    # collector actually kept on stable storage.
    kept = sum(len(node.storage.retained_indices()) for node in runner.nodes)
    features.add(
        (
            "ret",
            bucket(len(view.theorem1_retained())),
            bucket(len(view.theorem2_retained())),
            bucket(kept),
        )
    )

    # Recovery-line depths, one feature per recovery session.
    for record in runner.recoveries:
        features.add(
            (
                "rl",
                bucket(record.rolled_back_processes),
                bucket(record.lost_general_checkpoints),
            )
        )

    # Messages still in flight at the end (never-delivered ones included) —
    # drop/delay mutations reach states ordering alone cannot.
    stats = runner.network.stats
    pending = (
        stats.app_sent
        - stats.app_delivered
        - stats.app_dropped
        - stats.app_discarded_by_recovery
    )
    features.add(("pend", bucket(max(pending, 0))))
    return frozenset(features)


@dataclass
class CoverageMap:
    """The deduplicating set of every feature observed so far.

    Observation order matters only for bookkeeping (`first_seen` indices are
    reported, not used for decisions), so a map rebuilt from a persisted
    corpus index reaches the same novelty verdicts as the live run that
    wrote it.
    """

    #: feature -> execution ordinal (0-based) that first exhibited it.
    first_seen: Dict[Feature, int] = field(default_factory=dict)
    #: Executions observed (including non-novel ones).
    observed: int = 0

    def observe(self, features: FrozenSet[Feature]) -> FrozenSet[Feature]:
        """Fold one execution's features in; return the newly seen ones.

        Args:
            features: the feature set of one execution.

        Returns:
            The subset of ``features`` never seen before (empty when the
            execution added no coverage).
        """
        new = frozenset(f for f in features if f not in self.first_seen)
        for feature in new:
            self.first_seen[feature] = self.observed
        self.observed += 1
        return new

    def __len__(self) -> int:
        """Number of distinct features seen."""
        return len(self.first_seen)

    def dimension_counts(self) -> Dict[str, int]:
        """Distinct-feature count per dimension tag (stats reporting).

        Returns:
            A mapping of dimension tag (``zz``, ``scc``, ...) to the number
            of distinct features observed in that dimension.
        """
        counts: Dict[str, int] = {}
        for feature in self.first_seen:
            tag = str(feature[0])
            counts[tag] = counts.get(tag, 0) + 1
        return dict(sorted(counts.items()))

    def as_document(self) -> Dict[str, object]:
        """JSON-encodable form (persisted in the corpus index).

        Returns:
            A dict with the serialised feature list and observation count.
        """
        return {
            "observed": self.observed,
            "features": sorted(
                ([list(feature), seen] for feature, seen in self.first_seen.items()),
                key=lambda item: (str(item[0]), item[1]),
            ),
        }

    @classmethod
    def from_document(cls, document: Dict[str, object]) -> "CoverageMap":
        """Rebuild a map persisted by :meth:`as_document`.

        Args:
            document: the persisted form.

        Returns:
            An equivalent :class:`CoverageMap`.
        """
        coverage = cls(observed=int(document.get("observed", 0)))  # type: ignore[arg-type]
        for encoded, seen in document.get("features", []):  # type: ignore[union-attr]
            coverage.first_seen[tuple(encoded)] = int(seen)
        return coverage


__all__ = ["CoverageMap", "Feature", "bucket", "state_features"]
