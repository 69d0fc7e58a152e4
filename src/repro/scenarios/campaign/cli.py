"""Command-line front end of the campaign subsystem.

Run the paper's collector-comparison grid end to end in worker processes::

    python -m repro campaign --workers 8 --store results/paper.sqlite

Resume after an interruption (completed cells are skipped)::

    python -m repro campaign --workers 8 --store results/paper.sqlite

Run as one claim/lease worker of a distributed fabric — start any number of
these, on one machine or several pointed at a shared directory, against the
same SQL store; each cell is executed exactly once::

    python -m repro campaign --worker --store shared/sweep.sqlite \\
        --traces shared/traces

Shard deterministically for CI matrices (shard k of n runs the cells whose
expansion index is k mod n, into its own store; merge the shard stores with
``python -m repro query merge`` and reduce with ``repro query aggregate``)::

    python -m repro campaign --shard 0/2 --store shard0.sqlite

Run a custom sweep described in JSON — the file is loaded by
:func:`repro.api.load_spec`, so it may be anything the façade accepts as a
campaign document (schema: ``docs/architecture.md``, "Run documents") and is
refused with the façade's field-naming message::

    python -m repro campaign --spec my_sweep.json --out results/

Group the aggregate tables per fault regime with ``--group-by
network,collector,failures``.

``--out DIR`` writes the aggregate tables as ``<campaign>.csv`` /
``<campaign>.json`` next to the text rendering on stdout; ``--dry-run``
prints the cell count and the first cells without executing anything.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro import api
from repro.scenarios.campaign.aggregate import aggregate_campaign, check_group_by
from repro.scenarios.campaign.executor import run_campaign, run_worker
from repro.scenarios.campaign.spec import CampaignSpec


def _parse_shard(value: str) -> Tuple[int, int]:
    try:
        shard_text, count_text = value.split("/", 1)
        shard, count = int(shard_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like K/N (e.g. 0/2), got {value!r}"
        ) from None
    if not 0 <= shard < count:
        raise argparse.ArgumentTypeError(
            f"shard must satisfy 0 <= K < N, got {value!r}"
        )
    return (shard, count)


def _load_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CampaignSpec:
    if args.spec:
        # The grid-shaping flags configure the *default* grid only; accepting
        # them alongside --spec would silently run a different study than the
        # user asked for.
        for flag, attr in (
            ("--processes", "processes"),
            ("--duration", "duration"),
            ("--seeds", "seeds"),
            ("--failures", "failures"),
        ):
            if getattr(args, attr) != parser.get_default(attr):
                parser.error(
                    f"{flag} shapes the default grid and cannot be combined "
                    f"with --spec (set it in the JSON spec instead)"
                )
        return api.load_spec(args.spec, kind="campaign")
    from repro.scenarios.experiments import paper_campaign_spec

    return paper_campaign_spec(
        num_processes=args.processes,
        duration=args.duration,
        num_seeds=args.seeds,
        failure_counts=tuple(args.failures),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Expand, execute and aggregate an experiment campaign.",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="JSON campaign description (default: the paper's collector-comparison grid)",
    )
    parser.add_argument(
        "--processes", type=int, default=4,
        help="processes per simulation for the default grid (default: 4)",
    )
    parser.add_argument(
        "--duration", type=float, default=120.0,
        help="simulated seconds per cell for the default grid (default: 120)",
    )
    parser.add_argument(
        "--seeds", type=int, default=10,
        help="seeded repetitions per grid point for the default grid (default: 10)",
    )
    parser.add_argument(
        "--failures", type=int, nargs="+", default=[0, 2],
        help="failure levels (crashes per run) for the default grid (default: 0 2)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 runs in-process (default: 1)",
    )
    parser.add_argument(
        "--store", default=None,
        help="SQLite result store (e.g. results/paper.sqlite); an existing "
             "store makes the run resume",
    )
    parser.add_argument(
        "--retry-failed", action="store_true",
        help="re-execute cells the store recorded as failed (transient causes)",
    )
    parser.add_argument(
        "--shard", type=_parse_shard, default=None, metavar="K/N",
        help="run only the cells whose expansion index is K mod N "
             "(deterministic CI-matrix sharding)",
    )
    parser.add_argument(
        "--worker", action="store_true",
        help="run as one claim/lease fabric worker against --store; start "
             "any number of these on a shared store",
    )
    parser.add_argument(
        "--worker-id", default=None,
        help="worker identity for lease provenance (default: host:pid)",
    )
    parser.add_argument(
        "--lease", type=float, default=None, metavar="SECONDS",
        help="lease duration per claimed cell (worker mode; default 900). "
             "Must exceed the slowest cell's wall time",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="worker mode: poll until in-flight leases held by other "
             "workers resolve instead of exiting once nothing is claimable",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the aggregate as JSON on stdout instead of tables",
    )
    parser.add_argument(
        "--traces", default=None,
        help="directory for per-cell replayable trace artifacts "
             "(re-aggregate later with `python -m repro trace replay`)",
    )
    parser.add_argument(
        "--out", default=None,
        help="directory for the aggregate tables as CSV and JSON",
    )
    parser.add_argument(
        "--group-by", default="workload,collector,failures",
        help="comma-separated grouping axes (default: workload,collector,failures)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the expansion without executing",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        spec = _load_spec(args, parser)
    except api.SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cells = spec.cells()
    group_by = tuple(axis.strip() for axis in args.group_by.split(",") if axis.strip())
    if not group_by:
        parser.error("--group-by needs at least one axis")
    # Validate the axes before the sweep runs: a typo must not cost a
    # multi-minute grid whose results were never persisted.
    try:
        check_group_by(group_by, cells[0].params() if cells else {})
    except ValueError as exc:
        parser.error(str(exc))
    if args.dry_run:
        print(f"campaign {spec.name!r}: {len(cells)} cells")
        for cell in cells[:10]:
            print(
                f"  {cell.cell_id}  {cell.protocol} / {cell.collector} / "
                f"{cell.workload} / failures={cell.failures} / seed#{cell.seed_index}"
            )
        if len(cells) > 10:
            print(f"  ... and {len(cells) - 10} more")
        return 0

    def progress(done: int, total: int) -> None:
        if not args.quiet:
            print(f"\r{spec.name}: {done}/{total} cells", end="", file=sys.stderr, flush=True)

    if args.worker:
        if not args.store:
            parser.error("--worker needs --store (a shared result store)")
        started = time.perf_counter()
        try:
            worker_run = run_worker(
                spec,
                args.store,
                worker=args.worker_id,
                lease_duration=args.lease if args.lease is not None else 900.0,
                trace_dir=args.traces,
                progress=progress,
                shard=args.shard,
                wait=args.wait,
            )
        except ValueError as exc:  # unusable store, or another campaign's
            parser.error(str(exc))
        elapsed = time.perf_counter() - started
        if not args.quiet:
            print(file=sys.stderr)
        print(
            f"worker {worker_run.worker}: {worker_run.executed} cell(s) executed "
            f"({worker_run.failed} failed, {worker_run.stale} stale) in "
            f"{elapsed:.1f}s; {worker_run.remaining} still in flight elsewhere"
        )
        print(
            f"reduce with: python -m repro query aggregate --store {args.store}"
        )
        return 1 if worker_run.failed else 0

    if args.lease is not None or args.wait or args.worker_id:
        parser.error("--lease/--wait/--worker-id only apply to --worker mode")

    started = time.perf_counter()
    try:
        run = run_campaign(
            spec,
            store_path=args.store,
            workers=args.workers,
            progress=progress,
            retry_failed=args.retry_failed,
            trace_dir=args.traces,
            shard=args.shard,
        )
    except ValueError as exc:  # --store is not a (current-schema) result store
        parser.error(str(exc))
    elapsed = time.perf_counter() - started
    if not args.quiet:
        print(file=sys.stderr)
    if run.executed == 0 and run.skipped:
        # The short-circuit path: everything was already in the store — no
        # worker process was started and the store saw no writes.
        print(
            f"{run.skipped} cell(s) already complete — skipped "
            f"(store untouched)",
            file=sys.stderr,
        )

    # Report failures before aggregating: if every cell failed, the per-cell
    # errors below are the only diagnostic the user gets.
    failed = run.failed_records
    if failed:
        print(
            f"WARNING: {len(failed)} cell(s) failed (recorded, excluded from "
            f"aggregation):",
            file=sys.stderr,
        )
        for record in failed[:10]:
            p = record["params"]
            print(
                f"  {record['cell_id']}  {p['collector']} / {p['workload']} / "
                f"failures={p['failures']} / seed#{p['seed_index']}: {record['error']}",
                file=sys.stderr,
            )
        if len(failed) > 10:
            print(f"  ... and {len(failed) - 10} more", file=sys.stderr)
    if len(failed) == run.cell_count:
        print("every cell failed; nothing to aggregate", file=sys.stderr)
        return 1

    summary = aggregate_campaign(run.records, group_by=group_by)
    if args.json:
        print(summary.to_json())
    else:
        for _, table in summary.tables_by(group_by[0]) if len(group_by) > 1 else [
            (None, summary.table())
        ]:
            print(table.render())
            print()
    # In --json mode stdout carries only the JSON document; the run summary
    # moves to stderr so pipelines can parse the output directly.
    chatter = sys.stderr if args.json else sys.stdout
    print(
        f"{run.cell_count} cells ({run.executed} executed, {run.resumed} resumed "
        f"from store) in {elapsed:.1f}s with {max(args.workers, 1)} worker(s)",
        file=chatter,
    )
    if args.traces:
        print(f"replayable traces in {args.traces}", file=chatter)

    if args.out:
        print(f"aggregates written to {' and '.join(summary.write(args.out))}", file=chatter)
    return 0
