"""Canned analytical queries over the campaign result store.

The paper's evaluation asks a small set of questions over the protocol ×
collector × workload × fault-model grid — which collector retains the fewest
checkpoints under which regime, how sensitive each collector is to churn,
whether live (real-process) executions agree with the simulator.  This
module answers them in two equivalent forms:

* **SQL views** (``v_collector_score``, ``v_retained_winner``,
  ``v_churn_sensitivity``, ``v_live_vs_sim``) created inside every store, so
  any SQL client — ``sqlite3`` CLI, a notebook, Postgres after a port — can
  ask the default-parameter versions directly;
* **Python helpers** (:func:`run_query`, one entry per :data:`QUERIES`)
  which run the parameterised versions and return rows as dicts.

Two queries are *reducers*, not SQL: ``aggregate`` folds the store's records
through :func:`repro.scenarios.campaign.aggregate.aggregate_campaign` — the
same code path storeless runs and traced sweeps use — so its CSV/JSON output
is byte-identical to theirs on the same grid; ``status`` summarises queue
health (pending/leased/ok/failed, lease journal).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Grid axes shared by every analytical view; ``backend`` is excluded where
#: the query compares backends.
_AXES = "protocol, workload, failures, network"

_VIEW_SQL = {
    # Mean metric value per (regime, collector): the scoring substrate every
    # ranking query builds on.
    "v_collector_score": f"""
        SELECT campaign, {_AXES}, backend, collector, metric,
               AVG(value) AS mean_value,
               MIN(value) AS min_value,
               MAX(value) AS max_value,
               COUNT(*) AS runs
        FROM cell_metrics
        GROUP BY campaign, {_AXES}, backend, collector, metric
    """,
    # The paper's headline question: per fault regime, which collector
    # retains the fewest checkpoints (default metric: peak_retained)?
    "v_retained_winner": f"""
        SELECT * FROM (
            SELECT campaign, {_AXES}, backend, collector, mean_value, runs,
                   RANK() OVER (
                       PARTITION BY campaign, {_AXES}, backend
                       ORDER BY mean_value ASC, collector ASC
                   ) AS rank
            FROM v_collector_score
            WHERE metric = 'peak_retained'
        ) WHERE rank = 1
    """,
    # How much worse does each collector get as the failure axis hardens?
    "v_churn_sensitivity": """
        SELECT campaign, protocol, workload, network, backend, collector,
               failures, metric, mean_value, runs
        FROM v_collector_score
        ORDER BY campaign, protocol, workload, network, collector, failures
    """,
    # Sim-vs-live agreement: mean deltas for cells identical up to backend.
    "v_live_vs_sim": f"""
        SELECT sim.campaign, sim.protocol, sim.workload, sim.failures,
               sim.network, sim.collector, sim.metric,
               sim.mean_value AS sim_mean,
               live.mean_value AS live_mean,
               live.mean_value - sim.mean_value AS delta,
               sim.runs AS sim_runs, live.runs AS live_runs
        FROM v_collector_score sim
        JOIN v_collector_score live
          ON  sim.campaign = live.campaign
          AND sim.protocol = live.protocol
          AND sim.workload = live.workload
          AND sim.failures = live.failures
          AND sim.network = live.network
          AND sim.collector = live.collector
          AND sim.metric = live.metric
        WHERE sim.backend = 'sim' AND live.backend = 'live'
    """,
}


def create_views(connection: sqlite3.Connection) -> None:
    """Install the canned analytical views (idempotent)."""
    for name, sql in _VIEW_SQL.items():
        connection.execute(f"CREATE VIEW IF NOT EXISTS {name} AS {sql}")


@dataclass(frozen=True)
class Query:
    """One canned query: parameterised SQL plus its documentation."""

    name: str
    description: str
    sql: str
    defaults: Dict[str, Any] = field(default_factory=dict)


QUERIES: Dict[str, Query] = {
    query.name: query
    for query in (
        Query(
            name="retained-winner",
            description=(
                "Per fault regime (protocol x workload x failures x network), "
                "the collector with the lowest mean of :metric (default "
                "peak_retained) — 'which collector wins under bursty loss?'"
            ),
            sql=f"""
                SELECT * FROM (
                    SELECT campaign, {_AXES}, backend, collector, mean_value, runs,
                           RANK() OVER (
                               PARTITION BY campaign, {_AXES}, backend
                               ORDER BY mean_value ASC, collector ASC
                           ) AS rank
                    FROM v_collector_score
                    WHERE metric = :metric AND backend = :backend
                ) WHERE rank = 1
                ORDER BY campaign, {_AXES}
            """,
            defaults={"metric": "peak_retained", "backend": "sim"},
        ),
        Query(
            name="collector-table",
            description=(
                "Mean/min/max of :metric per (regime, collector) — the "
                "paper's comparison tables as rows."
            ),
            sql=f"""
                SELECT campaign, {_AXES}, backend, collector,
                       mean_value, min_value, max_value, runs
                FROM v_collector_score
                WHERE metric = :metric
                ORDER BY campaign, {_AXES}, backend, mean_value, collector
            """,
            defaults={"metric": "peak_retained"},
        ),
        Query(
            name="churn-sensitivity",
            description=(
                "Mean of :metric per collector as the failure axis hardens "
                "— how gracefully each collector degrades under churn."
            ),
            sql="""
                SELECT campaign, protocol, workload, network, backend,
                       collector, failures, mean_value, runs
                FROM v_collector_score
                WHERE metric = :metric
                ORDER BY campaign, protocol, workload, network, backend,
                         collector, failures
            """,
            defaults={"metric": "peak_retained"},
        ),
        Query(
            name="live-vs-sim",
            description=(
                "Per-regime mean deltas between live (real-process) and "
                "simulated executions of identical cells, for :metric."
            ),
            sql="""
                SELECT * FROM v_live_vs_sim
                WHERE metric = :metric
                ORDER BY campaign, protocol, workload, failures, network,
                         collector
            """,
            defaults={"metric": "peak_retained"},
        ),
        Query(
            name="failures",
            description="Failed cells with their errors, in expansion order.",
            sql="""
                SELECT cell_id, campaign, protocol, collector, workload,
                       failures, network, backend, seed_index, error
                FROM cells WHERE status = 'failed'
                ORDER BY cell_index, cell_id
            """,
        ),
    )
}


def run_query(
    store: Any,
    name: str,
    **params: Any,
) -> List[Dict[str, Any]]:
    """Run one canned query against a store (object or path); rows as dicts.

    Unknown parameters are rejected by name; omitted ones take the query's
    documented defaults.  A path must name an existing store.
    """
    from repro.scenarios.campaign.sqlstore import SQLResultStore

    if isinstance(store, str):
        with SQLResultStore(store, create=False) as opened:
            return run_query(opened, name, **params)
    if name not in QUERIES:
        raise KeyError(
            f"unknown query {name!r}; available: {', '.join(sorted(QUERIES))}"
        )
    query = QUERIES[name]
    unknown = sorted(set(params) - set(query.defaults))
    if unknown:
        accepted = ", ".join(sorted(query.defaults)) or "none"
        raise ValueError(
            f"query {name!r} does not take parameter(s) "
            f"{', '.join(unknown)}; accepted: {accepted}"
        )
    bound = {**query.defaults, **params}
    with store.connect() as connection:
        create_views(connection)
        rows = connection.execute(query.sql, bound).fetchall()
    return [dict(row) for row in rows]


def store_summary(
    store: Any,
    *,
    group_by: Optional[Tuple[str, ...]] = None,
    metrics: Optional[Tuple[str, ...]] = None,
    allow_incomplete: bool = False,
):
    """The byte-identical reducer: fold a store into a CampaignSummary.

    Reads the store's records in grid-expansion order and hands them to the
    same :func:`~repro.scenarios.campaign.aggregate.aggregate_campaign` every
    other path uses, so the CSV/JSON this produces is byte-identical to a
    storeless run's aggregate of the same grid.  Refuses stores with pending
    or leased cells unless ``allow_incomplete`` — a reducer that silently
    aggregates half a sweep would report a different study.  A path must
    name an existing store.
    """
    from repro.scenarios.campaign.aggregate import (
        DEFAULT_GROUP_BY,
        aggregate_campaign,
    )
    from repro.scenarios.campaign.sqlstore import SQLResultStore

    if isinstance(store, str):
        with SQLResultStore(store, create=False) as opened:
            records = opened.records()
    else:
        records = store.records()
    incomplete = [r for r in records if r.get("status") not in ("ok", "failed")]
    if incomplete and not allow_incomplete:
        raise ValueError(
            f"store has {len(incomplete)} incomplete cell(s) "
            f"(pending or leased); run the sweep to completion or pass "
            f"allow_incomplete=True to aggregate the finished prefix"
        )
    complete = [r for r in records if r.get("status") in ("ok", "failed")]
    return aggregate_campaign(
        complete,
        group_by=group_by or DEFAULT_GROUP_BY,
        metrics=metrics,
    )


def describe_queries() -> List[Tuple[str, str, Mapping[str, Any]]]:
    """(name, description, defaults) for every canned query, sorted."""
    return [
        (query.name, query.description, dict(query.defaults))
        for query in sorted(QUERIES.values(), key=lambda q: q.name)
    ]
