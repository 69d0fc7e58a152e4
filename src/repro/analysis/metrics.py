"""Aggregation of repeated runs into summary statistics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class AggregateStats:
    """Mean / spread of one scalar metric over repeated runs.

    ``stdev`` is the *sample* standard deviation: the seeded runs of a study
    are a sample of the run distribution, not the whole population, so the
    spread uses the ``n - 1`` (Bessel-corrected) estimator.  A single run has
    no measurable spread — its ``stdev`` is 0.
    """

    mean: float
    minimum: float
    maximum: float
    stdev: float
    count: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.2f} ± {self.stdev:.2f} "
            f"(min {self.minimum:.2f}, max {self.maximum:.2f}, n={self.count})"
        )


def aggregate(values: Iterable[float]) -> AggregateStats:
    """Aggregate a sequence of scalar observations."""
    observations = [float(v) for v in values]
    if not observations:
        raise ValueError("cannot aggregate an empty sequence")
    return AggregateStats(
        mean=statistics.fmean(observations),
        minimum=min(observations),
        maximum=max(observations),
        stdev=statistics.stdev(observations) if len(observations) > 1 else 0.0,
        count=len(observations),
    )

