"""The paper's collector-comparison study as one resumable campaign sweep.

Runs the full evaluation grid — all 5 collectors × 4 workload shapes ×
failure levels × ≥10 seeds — through :mod:`repro.scenarios.campaign` on a
worker pool, and writes:

* the SQLite result store (``benchmarks/results/campaign_paper_grid.sqlite``) —
  re-running the benchmark resumes from it instead of recomputing;
* the aggregate tables (text to stdout, CSV/JSON next to the store);
* a throughput line (cells/second, worker count) for the perf trajectory.

Run directly::

    python benchmarks/bench_campaign_sweep.py                 # full grid, pool
    python benchmarks/bench_campaign_sweep.py --workers 2
    python benchmarks/bench_campaign_sweep.py --smoke         # seconds-sized
    python benchmarks/bench_campaign_sweep.py --fresh         # ignore the store
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.scenarios.campaign import aggregate_campaign, run_campaign  # noqa: E402
from repro.scenarios.experiments import (  # noqa: E402
    paper_campaign_spec,
    smoke_campaign_spec,
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=max(os.cpu_count() or 1, 1),
        help="pool processes (default: all cores)",
    )
    parser.add_argument(
        "--seeds", type=int, default=10,
        help="seeded repetitions per grid point (default: 10)",
    )
    parser.add_argument(
        "--duration", type=float, default=120.0,
        help="simulated seconds per cell (default: 120)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the seconds-sized smoke grid instead of the paper grid",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore (and overwrite) any existing result store",
    )
    parser.add_argument(
        "--traces", action="store_true",
        help="persist a replayable trace artifact per cell next to the store "
             "(re-aggregate/re-audit later with `python -m repro trace replay`)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # The smoke grid is fixed-shape; accepting the sizing flags alongside
        # it would silently run a different sweep than the user asked for.
        if args.seeds != parser.get_default("seeds") or args.duration != parser.get_default(
            "duration"
        ):
            parser.error(
                "--seeds/--duration shape the paper grid and cannot be combined with --smoke"
            )
        spec = smoke_campaign_spec()
        store_name = "campaign_smoke_grid"
    else:
        spec = paper_campaign_spec(num_seeds=args.seeds, duration=args.duration)
        store_name = "campaign_paper_grid"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    store_path = os.path.join(RESULTS_DIR, f"{store_name}.sqlite")
    if args.fresh:
        # A killed sweep can leave SQLite's WAL sidecars next to the store.
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(store_path + suffix):
                os.remove(store_path + suffix)

    print(
        f"campaign {spec.name!r}: {spec.cell_count} cells "
        f"({len(spec.collectors)} collectors x {len(spec.workloads)} workloads x "
        f"{len(spec.failure_counts)} failure levels x {len(spec.seeds)} seeds), "
        f"{args.workers} worker(s)"
    )
    trace_dir = os.path.join(RESULTS_DIR, f"{store_name}_traces") if args.traces else None
    started = time.perf_counter()
    run = run_campaign(
        spec, store_path=store_path, workers=args.workers, trace_dir=trace_dir
    )
    elapsed = time.perf_counter() - started

    if len(run.failed_records) == run.cell_count:
        for record in run.failed_records[:10]:
            print(f"  {record['cell_id']}: {record['error']}", file=sys.stderr)
        print("every cell failed; nothing to aggregate", file=sys.stderr)
        return 1
    summary = aggregate_campaign(run.records)
    for _, table in summary.tables_by("workload"):
        print()
        print(table.render())
    csv_path = os.path.join(RESULTS_DIR, f"{store_name}.csv")
    json_path = os.path.join(RESULTS_DIR, f"{store_name}.json")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(summary.to_csv())
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(summary.to_json())

    rate = run.executed / elapsed if elapsed > 0 else float("inf")
    print()
    print(
        f"{run.cell_count} cells ({run.executed} executed, {run.resumed} resumed) "
        f"in {elapsed:.1f}s -> {rate:.1f} cells/s on {args.workers} worker(s)"
    )
    if run.failed_records:
        print(
            f"{len(run.failed_records)} cell(s) failed and were recorded as such "
            f"(the unsafe time-based collector under crash injection — the "
            f"paper's predicted failure mode)"
        )
    print(f"store: {store_path}")
    print(f"aggregates: {csv_path}, {json_path}")
    if trace_dir:
        print(f"replayable traces: {trace_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
