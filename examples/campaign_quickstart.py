#!/usr/bin/env python3
"""Campaign quickstart: declare a sweep, run it twice, aggregate and replay it.

Walks the whole campaign pipeline on a deliberately tiny grid:

1. declare a :class:`CampaignSpec` (the grid axes);
2. expand it into self-seeded cells and run them in 2 worker processes while
   streaming results to a SQLite store — and a replayable trace artifact per
   cell (``trace_dir``);
3. run the *same* campaign again — every cell resumes from the store, nothing
   re-executes;
4. fold the per-cell metrics into per-(collector, failure level) statistics
   and print/export the aggregate table;
5. re-build the exact same aggregates from the trace artifacts alone (no
   re-simulation), and rehydrate one cell's trace into its full analysis
   state — the recovery lines of the replayed recorder are the live run's.

The full paper-scale study is the same pipeline via
``python -m repro campaign`` — only the grid is bigger; the trace tooling is
also available standalone as ``python -m repro trace``.
"""

import os
import tempfile

from repro.scenarios.campaign import (
    CampaignSpec,
    CollectorSpec,
    WorkloadSpec,
    aggregate_campaign,
    run_campaign,
)
from repro.traceio import TraceReader, analysis_table, campaign_records_from_traces


def main() -> None:
    # 1. Declare the grid: 2 collectors x 1 workload x 2 failure levels x 2 seeds.
    spec = CampaignSpec(
        name="quickstart",
        num_processes=3,
        duration=60.0,
        collectors=(
            CollectorSpec.of("rdt-lgc"),
            CollectorSpec.of("wang-coordinated", {"period": 15.0}),
        ),
        workloads=(WorkloadSpec.of("uniform-random"),),
        failure_counts=(0, 1),
        seeds=(0, 1),
    )
    print(f"campaign {spec.name!r}: {spec.cell_count} cells")

    with tempfile.TemporaryDirectory() as scratch:
        store = os.path.join(scratch, "quickstart.sqlite")
        traces = os.path.join(scratch, "traces")

        # 2. First run: everything executes (here in 2 worker processes), each
        #    cell leaving a durable, replayable trace artifact.
        first = run_campaign(spec, store_path=store, workers=2, trace_dir=traces)
        print(f"first run:  {first.executed} executed, {first.resumed} resumed")

        # 3. Second run: the store already has every cell -> pure resume.
        second = run_campaign(spec, store_path=store)
        print(f"second run: {second.executed} executed, {second.resumed} resumed")

        # 4. Aggregate (identical from either run -- cells are self-seeded).
        summary = aggregate_campaign(second.records, group_by=("collector", "failures"))
        print()
        print(summary.table(title="Quickstart campaign (means over 2 seeds)").render())
        csv_path = os.path.join(scratch, "quickstart.csv")
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(summary.to_csv())
        print(f"\nfull-precision aggregate exported to {os.path.basename(csv_path)}")

        # 5. The traces alone reproduce the aggregates byte for byte...
        replayed_records = campaign_records_from_traces(traces)
        replayed_summary = aggregate_campaign(
            replayed_records, group_by=("collector", "failures")
        )
        assert replayed_summary.to_csv() == summary.to_csv()
        print(
            f"{len(replayed_records)} trace artifacts re-aggregated to the "
            f"byte-identical table (no re-simulation)"
        )

        # ... and any single cell rehydrates into its full analysis state.
        a_crashy_cell = next(
            r for r in replayed_records if r["params"]["failures"] > 0
        )
        replayed = TraceReader(os.path.join(traces, a_crashy_cell["trace"])).replay()
        print()
        print(
            analysis_table(
                replayed.recorder,
                title=f"Replayed cell {a_crashy_cell['cell_id']} "
                f"({len(replayed.recovery_plans)} recovery session(s))",
            ).render()
        )


if __name__ == "__main__":
    main()
