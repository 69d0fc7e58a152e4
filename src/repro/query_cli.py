"""``python -m repro query`` — canned analytics over a campaign result store.

List the query library, then answer the paper's questions in one command::

    python -m repro query list
    python -m repro query retained-winner --store sweep.sqlite
    python -m repro query churn-sensitivity --store sweep.sqlite \\
        --param metric=final_retained --json

Queue health and the byte-identical reducer::

    python -m repro query status --store sweep.sqlite
    python -m repro query aggregate --store sweep.sqlite --out results/

Fold CI shard stores into one before reducing::

    python -m repro query merge --store merged.sqlite shard0.sqlite shard1.sqlite
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.analysis.tables import TextTable
from repro.scenarios.campaign.queries import (
    QUERIES,
    describe_queries,
    run_query,
    store_summary,
)
from repro.scenarios.campaign.sqlstore import SQLResultStore


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise argparse.ArgumentTypeError(
                f"--param must look like key=value, got {pair!r}"
            )
        key, value = pair.split("=", 1)
        params[key] = value
    return params


def _print_rows(rows: List[Dict[str, Any]], *, as_json: bool, title: str) -> None:
    if as_json:
        print(json.dumps(rows, indent=2))
        return
    if not rows:
        print(f"{title}: no rows")
        return
    columns = list(rows[0])
    table = TextTable(columns, title=title)
    for row in rows:
        table.add_row(*[
            f"{value:.2f}" if isinstance(value, float) else value
            for value in row.values()
        ])
    print(table.render())


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                [
                    {"name": name, "description": description, "defaults": defaults}
                    for name, description, defaults in describe_queries()
                ],
                indent=2,
            )
        )
        return 0
    for name, description, defaults in describe_queries():
        print(f"{name}")
        print(f"    {description}")
        if defaults:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(defaults.items()))
            print(f"    parameters: {rendered}")
    print("status\n    queue health: cell counts per status, live leases, lease outcomes.")
    print(
        "aggregate\n    the byte-identical reducer: fold the store's records "
        "through the\n    campaign aggregation layer (same CSV/JSON as the "
        "sweep itself prints)."
    )
    print("merge\n    fold shard stores' completed cells into --store.")
    return 0


def _cmd_status(args: argparse.Namespace, store: SQLResultStore) -> int:
    counts = store.status_counts()
    now = time.time()
    claimable, inflight = store.remaining(now=now)
    journal = store.lease_history()
    # Always counted, zero or not: each is a lease that ended uncompleted.
    outcomes = {"expired": 0, "stale": 0, "released": 0}
    for entry in journal:
        if entry["outcome"] in outcomes:
            outcomes[entry["outcome"]] += 1
    live = [
        {
            "worker": entry["worker"], "cell_id": entry["cell_id"],
            "attempt": entry["attempt"], "age_s": round(now - entry["claimed_at"], 3),
            "expires_in_s": round(entry["expires_at"] - now, 3),
        }
        for entry in journal
        if entry["outcome"] is None and entry["expires_at"] > now
    ]
    document = {
        "store": args.store,
        "cells": sum(counts.values()),
        "by_status": counts,
        "claimable": claimable,
        "in_flight": inflight,
        "leases": len(journal),
        "lease_outcomes": outcomes,
        "live_leases": live,
    }
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for key, value in document.items():
            if key != "live_leases":
                print(f"{key:>14}: {value}")
        for lease in live:
            print(
                f"{'live lease':>14}: {lease['worker']} holds {lease['cell_id']} "
                f"(attempt {lease['attempt']}, {lease['age_s']:.1f}s old, "
                f"expires in {lease['expires_in_s']:.1f}s)"
            )
    # A store with failed cells is a domain finding, same as failed cells in
    # a live sweep's summary.
    return 1 if counts.get("failed") else 0


def _cmd_aggregate(args: argparse.Namespace, store: SQLResultStore) -> int:
    group_by = tuple(
        axis.strip() for axis in (args.group_by or "").split(",") if axis.strip()
    ) or None
    try:
        summary = store_summary(
            store, group_by=group_by, allow_incomplete=args.partial
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(summary.to_json())
    else:
        print(summary.table().render())
    if args.out:
        written = " and ".join(summary.write(args.out))
        print(f"aggregates written to {written}", file=sys.stderr)
    return 0


def _cmd_merge(args: argparse.Namespace, store: SQLResultStore) -> int:
    total = 0
    for source in args.sources:
        try:
            imported = store.merge_from(source)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{source}: {imported} completed cell(s) imported", file=sys.stderr)
        total += imported
    counts = store.status_counts()
    print(f"{args.store}: {total} imported, now {counts}")
    return 0


def _cmd_canned(args: argparse.Namespace, store: SQLResultStore) -> int:
    try:
        rows = run_query(store, args.query_name, **_parse_params(args.param))
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_rows(rows, as_json=args.json, title=f"query: {args.query_name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro query",
        description="Canned analytical queries over a campaign result store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    listing = commands.add_parser("list", help="describe the query library")
    listing.add_argument("--json", action="store_true", help="JSON on stdout")
    listing.set_defaults(func=_cmd_list)

    status = commands.add_parser("status", help="queue health of a store")
    status.add_argument("--store", required=True, help="SQL result store path")
    status.add_argument("--json", action="store_true", help="JSON on stdout")
    status.set_defaults(func=_cmd_status)

    aggregate = commands.add_parser(
        "aggregate",
        help="fold the store through the byte-identical campaign reducer",
    )
    aggregate.add_argument("--store", required=True, help="SQL result store path")
    aggregate.add_argument(
        "--group-by", default=None,
        help="comma-separated grouping axes (default: workload,collector,failures)",
    )
    aggregate.add_argument(
        "--out", default=None, help="directory for the CSV/JSON documents"
    )
    aggregate.add_argument(
        "--partial", action="store_true",
        help="aggregate the completed prefix of an unfinished sweep",
    )
    aggregate.add_argument("--json", action="store_true", help="JSON on stdout")
    aggregate.set_defaults(func=_cmd_aggregate)

    merge = commands.add_parser(
        "merge", help="fold shard stores' completed cells into --store"
    )
    merge.add_argument("--store", required=True, help="destination SQL store")
    merge.add_argument("sources", nargs="+", help="shard store files to import")
    merge.set_defaults(func=_cmd_merge)

    for name in sorted(QUERIES):
        canned = commands.add_parser(name, help=QUERIES[name].description)
        canned.add_argument("--store", required=True, help="SQL result store path")
        canned.add_argument(
            "--param", action="append", default=[], metavar="KEY=VALUE",
            help="override a query parameter (repeatable)",
        )
        canned.add_argument("--json", action="store_true", help="JSON on stdout")
        canned.set_defaults(func=_cmd_canned, query_name=name)

    args = parser.parse_args(argv)
    if args.func is _cmd_list:
        return _cmd_list(args)
    try:
        # Only ``merge`` writes its --store; every other command reads, and a
        # mistyped path must not leave a fresh empty store behind.
        store = SQLResultStore(args.store, create=args.func is _cmd_merge)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with store:
        return args.func(args, store)


if __name__ == "__main__":
    raise SystemExit(main())
