"""Analysis and reporting helpers.

* :mod:`metrics` — aggregation of repeated observations (multiple seeds) into
  mean / min / max statistics;
* :mod:`tables` — plain-text tables used by the benchmark harness and the
  examples to print paper-style result tables.
"""

from repro.analysis.metrics import AggregateStats, aggregate
from repro.analysis.tables import TextTable

__all__ = [
    "AggregateStats",
    "TextTable",
    "aggregate",
]
