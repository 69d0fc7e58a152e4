#!/usr/bin/env python3
"""Compare garbage collectors on the workloads a deployment would actually see.

This is the evaluation study the paper motivates: storage space is the price
of autonomy in communication-induced checkpointing, so how much of it does
each garbage-collection strategy reclaim, and at what coordination cost?

The study is expressed as a declarative campaign — the paper's grid of every
registered collector × the four workload shapes × several seeds — expanded,
executed and aggregated by :mod:`repro.scenarios.campaign`.  This script runs
a shrunk copy of it (3 seeds, no failures) so it finishes in seconds; the
full grid (≥10 seeds, crash injection, worker processes) is one command::

    python -m repro campaign --workers 8 --store results/paper.sqlite
"""

from repro.scenarios.experiments import paper_campaign_spec, run_collector_comparison

NUM_PROCESSES = 4
NUM_SEEDS = 3


def main() -> None:
    spec = paper_campaign_spec(
        num_processes=NUM_PROCESSES,
        duration=250.0,
        num_seeds=NUM_SEEDS,
        failure_counts=(0,),
    )
    _, summary = run_collector_comparison(
        spec,
        group_by=("workload", "collector"),
        metrics=(
            "peak_retained",
            "final_retained",
            "max_per_process",
            "collection_ratio",
            "control",
        ),
    )
    for _, table in summary.tables_by("workload"):
        print(table.render())
        print()
    print(
        "Reading: 'none' grows with the execution; 'rdt-lgc' stays within n "
        "checkpoints per process with zero control messages; the coordinated "
        "schemes collect at least as much but pay control-message rounds; the "
        "time-based scheme works only while its timing assumptions hold."
    )


if __name__ == "__main__":
    main()
