"""Declarative experiment campaigns: grids of simulations at paper scale.

The paper's evaluation (Sections 5-6) compares garbage collectors across
protocols, workloads and failure rates over many seeded runs.  This
subpackage turns that kind of study into a first-class object:

* :mod:`spec` — :class:`CampaignSpec` describes the sweep as a grid
  (protocol × collector × workload × failure schedule × network × seeds);
  expansion produces :class:`CampaignCell` objects whose identity (and the
  per-cell engine/failure seeds) is a stable hash of the cell's parameters,
  independent of execution order;
* :mod:`executor` — runs the cells serially, on a ``multiprocessing`` pool,
  or as one of any number of claim/lease workers (:func:`run_worker`)
  sharing a SQL store; because every cell is self-seeded, the results are
  identical regardless of worker count or placement;
* :mod:`sqlstore` — the SQL result store and work queue
  (SQLite-first, Postgres-ready schema: runs/cells/metrics/artifacts plus a
  lease journal), with atomic claims and crash-tolerant lease expiry;
* :mod:`queries` — canned analytical queries (SQL views + Python helpers)
  answering the paper's questions over the store, and the byte-identical
  :func:`store_summary` reducer;
* :mod:`aggregate` — folds per-cell metrics through
  :mod:`repro.analysis.metrics` into per-group :class:`AggregateStats`
  tables with text/CSV/JSON rendering;
* :mod:`cli` — the ``python -m repro campaign`` entry point.
"""

from repro.scenarios.campaign.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    CampaignSummary,
    GroupStats,
    aggregate_campaign,
)
from repro.scenarios.campaign.executor import (
    CELL_METRICS,
    CampaignRun,
    WorkerRun,
    cell_metrics,
    default_worker_id,
    execute_cell,
    run_campaign,
    run_worker,
    trace_filename,
)
from repro.scenarios.campaign.queries import (
    QUERIES,
    describe_queries,
    run_query,
    store_summary,
)
from repro.scenarios.campaign.sqlstore import ClaimedCell, SQLResultStore
from repro.scenarios.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    CollectorSpec,
    FailureAxisEntry,
    WorkloadSpec,
    spec_from_mapping,
)

__all__ = [
    "CELL_METRICS",
    "DEFAULT_GROUP_BY",
    "DEFAULT_METRICS",
    "QUERIES",
    "CampaignCell",
    "CampaignRun",
    "CampaignSpec",
    "CampaignSummary",
    "ClaimedCell",
    "CollectorSpec",
    "FailureAxisEntry",
    "GroupStats",
    "SQLResultStore",
    "WorkerRun",
    "WorkloadSpec",
    "aggregate_campaign",
    "cell_metrics",
    "default_worker_id",
    "describe_queries",
    "execute_cell",
    "run_campaign",
    "run_query",
    "run_worker",
    "spec_from_mapping",
    "store_summary",
    "trace_filename",
]
