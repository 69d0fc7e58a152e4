"""Collector behaviour under adversarial network fault models, as one sweep.

Crosses every collector with the fault-model regimes of
:func:`repro.scenarios.experiments.fault_model_networks` — uniform baseline,
i.i.d. loss, Gilbert–Elliott bursty loss, duplication, an asymmetric latency
matrix, a healing partition, FIFO discipline — plus crash-recovery churn,
through :mod:`repro.scenarios.campaign`, and writes:

* the SQLite result store (``benchmarks/results/fault_models.sqlite``) —
  re-running the benchmark resumes from it instead of recomputing;
* the aggregate tables grouped per network regime (text to stdout, CSV/JSON
  next to the store);
* a throughput line (cells/second, worker count) for the perf trajectory.

Run directly::

    python benchmarks/bench_fault_models.py                 # full grid, pool
    python benchmarks/bench_fault_models.py --workers 2
    python benchmarks/bench_fault_models.py --smoke         # seconds-sized
    python benchmarks/bench_fault_models.py --fresh         # ignore the store
    python benchmarks/bench_fault_models.py --traces        # per-cell artifacts
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
from repro.scenarios.experiments import fault_model_campaign_spec  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The per-regime tables lead with the fault-model costs, then the paper's
#: storage metrics.
METRICS = (
    "peak_retained",
    "final_retained",
    "collection_ratio",
    "control",
    "forced",
    "recoveries",
    "duplicated",
    "partition_blocked",
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=max(os.cpu_count() or 1, 1),
        help="pool processes (default: all cores)",
    )
    parser.add_argument(
        "--seeds", type=int, default=5,
        help="seeded repetitions per grid point (default: 5)",
    )
    parser.add_argument(
        "--duration", type=float, default=120.0,
        help="simulated seconds per cell (default: 120)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run a seconds-sized slice (2 collectors, 2 seeds, short cells)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore (and overwrite) any existing result store",
    )
    parser.add_argument(
        "--traces", action="store_true",
        help="persist a replayable trace artifact per cell next to the store",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        if args.seeds != parser.get_default("seeds") or args.duration != parser.get_default(
            "duration"
        ):
            parser.error(
                "--seeds/--duration shape the full grid and cannot be combined with --smoke"
            )
        spec = fault_model_campaign_spec(
            num_processes=3,
            duration=50.0,
            num_seeds=2,
            collectors=(("rdt-lgc", {}), ("wang-coordinated", {"period": 15.0})),
        )
        store_name = "fault_models_smoke"
    else:
        spec = fault_model_campaign_spec(num_seeds=args.seeds, duration=args.duration)
        store_name = "fault_models"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    store_path = os.path.join(RESULTS_DIR, f"{store_name}.sqlite")
    if args.fresh:
        # A killed sweep can leave SQLite's WAL sidecars next to the store.
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(store_path + suffix):
                os.remove(store_path + suffix)

    print(
        f"campaign {spec.name!r}: {spec.cell_count} cells "
        f"({len(spec.collectors)} collectors x {len(spec.networks)} network regimes x "
        f"{len(spec.failure_counts)} failure models x {len(spec.seeds)} seeds), "
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
    summary = aggregate_campaign(
        run.records, group_by=("network", "collector", "failures"), metrics=METRICS
    )
    for _, table in summary.tables_by("network"):
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
            f"(collectors whose safety assumptions the adversarial transports "
            f"violate — the finding this sweep exists to surface)"
        )
    print(f"store: {store_path}")
    print(f"aggregates: {csv_path}, {json_path}")
    if trace_dir:
        print(f"replayable traces: {trace_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
