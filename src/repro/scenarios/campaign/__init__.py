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

import importlib
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # the re-exports for type checkers; at run time __getattr__ loads them
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

#: The submodule each re-exported name lives in.  A name is imported on its
#: first access (PEP 562): the spec parser a single simulation's document
#: goes through loads without the executor, the SQL store (``sqlite3``), the
#: worker fabric (``multiprocessing``), the queries and the aggregate.
_SOURCES = {
    name: f"{__name__}.{module}"
    for module, names in {
        "aggregate": (
            "DEFAULT_GROUP_BY",
            "DEFAULT_METRICS",
            "CampaignSummary",
            "GroupStats",
            "aggregate_campaign",
        ),
        "executor": (
            "CampaignRun",
            "CampaignWorkerError",
            "WorkerRun",
            "default_worker_id",
            "execute_cell",
            "run_campaign",
            "run_worker",
            "trace_filename",
        ),
        "queries": ("QUERIES", "describe_queries", "run_query", "store_summary"),
        "sqlstore": ("ClaimedCell", "SQLResultStore"),
        "spec": (
            "CampaignCell",
            "CampaignSpec",
            "CollectorSpec",
            "FailureAxisEntry",
            "WorkloadSpec",
            "spec_from_mapping",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str) -> Any:
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SOURCES[name]), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})


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
