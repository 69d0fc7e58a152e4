"""Declarative experiment campaigns: grids of simulations at paper scale.

The paper's evaluation (Sections 5-6) compares garbage collectors across
protocols, workloads and failure rates over many seeded runs.  This
subpackage turns that kind of study into a first-class object:

* :mod:`spec` — :class:`CampaignSpec` describes the sweep as a grid
  (protocol × collector × workload × failure schedule × network × seeds);
  expansion produces :class:`CampaignCell` objects whose identity (and the
  per-cell engine/failure seeds) is a stable hash of the cell's parameters,
  independent of execution order;
* :mod:`executor` — one claim loop over the SQL store executes every cell:
  :func:`run_campaign` runs it in-process or in forked worker processes
  (on a temporary store when the caller names none), :func:`run_worker` as
  one of any number of claim/lease workers sharing a store; because every
  cell is self-seeded, the results are identical regardless of worker count
  or placement;
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
    CampaignRun,
    CampaignWorkerError,
    WorkerRun,
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
    "DEFAULT_GROUP_BY",
    "DEFAULT_METRICS",
    "QUERIES",
    "CampaignCell",
    "CampaignRun",
    "CampaignSpec",
    "CampaignSummary",
    "CampaignWorkerError",
    "ClaimedCell",
    "CollectorSpec",
    "FailureAxisEntry",
    "GroupStats",
    "SQLResultStore",
    "WorkerRun",
    "WorkloadSpec",
    "aggregate_campaign",
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
