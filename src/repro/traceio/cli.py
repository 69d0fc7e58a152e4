"""Command-line front end of the trace subsystem.

Traces are written by the run that produces them; a campaign sweep leaves
one artifact per cell::

    python -m repro campaign --spec my_sweep.json --traces results/traces

Re-aggregate a recorded sweep from its artifacts alone (no re-simulation;
byte-identical CSV/JSON to the live run)::

    python -m repro trace replay results/traces --out results/replayed

Rehydrate a single trace into its full analysis state, or audit artifacts::

    python -m repro trace replay results/traces/<cell>.trace.jsonl
    python -m repro trace replay results/traces --verify

Peek at a trace without replaying it, or compare two traces::

    python -m repro trace inspect results/traces/<cell>.trace.jsonl
    python -m repro trace diff a.trace.jsonl b.trace.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from repro.traceio.format import RunProvenance, TraceError
from repro.traceio.reader import (
    TraceReader,
    analysis_table,
    campaign_records_from_traces,
    verify_replayed,
    verify_trace,
)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def _replay_directory(args: argparse.Namespace) -> int:
    from repro.scenarios.campaign import DEFAULT_GROUP_BY, aggregate_campaign
    from repro.scenarios.campaign.aggregate import check_group_by

    group_by = tuple(
        axis.strip() for axis in (args.group_by or "").split(",") if axis.strip()
    ) or DEFAULT_GROUP_BY
    records = campaign_records_from_traces(args.path)
    try:
        check_group_by(group_by, records[0]["params"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verify:
        violations: List[str] = []
        for record in records:
            violations.extend(verify_trace(os.path.join(args.path, record["trace"])))
        if violations:
            for violation in violations:
                print(f"VERIFY: {violation}", file=sys.stderr)
            return 1
        print(f"{len(records)} trace(s) verified — ok")
    failed = [r for r in records if r.get("status") != "ok"]
    for record in failed[:10]:
        print(f"failed cell {record['cell_id']}: {record['error']}", file=sys.stderr)
    if len(failed) == len(records):
        print("every recorded cell failed; nothing to aggregate", file=sys.stderr)
        return 1
    summary = aggregate_campaign(records, group_by=group_by)
    print(summary.table().render())
    print(f"{len(records)} cells re-aggregated from traces (no re-simulation)")
    if args.out:
        written = " and ".join(summary.write(args.out, unnamed="replayed"))
        print(f"aggregates written to {written}")
    return 0


def _replay_file(args: argparse.Namespace) -> int:
    replayed = TraceReader(args.path).replay(allow_partial=args.partial or args.verify)
    violations = verify_replayed(replayed) if args.verify else []
    if violations:
        for violation in violations:
            print(f"VERIFY: {violation}", file=sys.stderr)
        return 1
    header = replayed.header
    print(
        f"{args.path}: {header['protocol']} / {header['collector']} / "
        f"seed {header['seed']} / {replayed.num_processes} processes "
        f"[{replayed.status}]"
    )
    title = f"Replayed: {os.path.basename(args.path)}"
    print(analysis_table(replayed.recorder, title=title).render())
    if replayed.recovery_plans:
        print(f"{len(replayed.recovery_plans)} recovery session(s) replayed:")
        for plan in replayed.recovery_plans:
            line = ",".join(str(i) for i in plan.recovery_line.indices)
            print(f"  faulty {set(plan.faulty)} -> recovery line ({line})")
    metrics = replayed.metrics
    if metrics is not None:
        rendered = ", ".join(f"{k}={v}" for k, v in metrics.items())
        print(f"metrics: {rendered}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if os.path.isdir(args.path):
        return _replay_directory(args)
    return _replay_file(args)


# ----------------------------------------------------------------------
# inspect
# ----------------------------------------------------------------------
def _cmd_inspect(args: argparse.Namespace) -> int:
    reader = TraceReader(args.path)
    header, footer = reader.summary()
    print(f"{args.path}:")
    print(f"  format:       {header['format']} v{header['version']}")
    print(f"  processes:    {header['num_processes']}")
    print(f"  seed:         {header['seed']}")
    print(f"  protocol:     {header['protocol']}")
    print(f"  collector:    {header['collector']} {header.get('collector_options') or ''}")
    print(f"  workload:     {header.get('workload')}")
    print(f"  duration:     {header.get('duration')}")
    network = header.get("network") or {}
    if network.get("channel"):
        print(f"  channel:      {network['channel'].get('kind')} {network['channel']}")
    if network.get("partitions"):
        windows = ", ".join(
            f"[{p['start']:g},{p['end']:g})" for p in network["partitions"]
        )
        print(f"  partitions:   {windows}")
    if network.get("fifo"):
        print("  discipline:   FIFO")
    schedule = header.get("failure_schedule") or []
    if schedule:
        crashes = ", ".join(f"p{pid}@{time:g}" for time, pid in schedule)
        print(f"  failures:     {crashes}")
    if header.get("membership"):
        events = ", ".join(
            f"p{pid} {kind}s@{time:g}" for kind, pid, time in header["membership"]
        )
        print(f"  membership:   {events}")
    meta = header.get("meta") or {}
    provenance = RunProvenance.from_meta(meta)
    if provenance is not None and provenance.kind == "campaign":
        print(
            f"  campaign:     {provenance.fields.get('campaign')} "
            f"cell {provenance.fields['cell_id']}"
        )
    elif provenance is not None and provenance.kind == "live":
        backend = header.get("backend", "live")
        print(f"  backend:      {backend} ({provenance.fields})")
    counts: Dict[str, int] = {}
    try:
        for _, parsed in reader.lines():
            if isinstance(parsed, list) and parsed:
                counts[parsed[0]] = counts.get(parsed[0], 0) + 1
    except TraceError:
        pass
    names = {"s": "sends", "r": "receives", "d": "duplicates", "c": "checkpoints",
             "i": "internal", "v": "recoveries", "S": "samples",
             "p": "partition events", "j": "joins", "l": "leaves"}
    rendered = ", ".join(
        f"{counts[tag]} {names.get(tag, tag)}" for tag in sorted(counts)
    )
    print(f"  records:      {rendered or 'none'}")
    # Always rendered, "none" included: crash-free traces (counterexamples
    # from the explorer's crash-free sweeps, zero-failure campaign cells)
    # must inspect uniformly with crashing ones.
    sessions = counts.get("v", 0)
    print(f"  recoveries:   {sessions if sessions else 'none'}")
    if footer is None:
        print("  footer:       MISSING — trace is truncated")
        return 1
    print(f"  status:       {footer.get('status')}")
    if footer.get("error"):
        print(f"  error:        {footer['error']}")
    metrics = footer.get("metrics")
    if metrics:
        rendered = ", ".join(f"{k}={v}" for k, v in metrics.items())
        print(f"  metrics:      {rendered}")
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _diff_documents(label: str, a: Any, b: Any, diffs: List[str]) -> None:
    if a == b:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                diffs.append(f"{label}.{key}: {a.get(key)!r} != {b.get(key)!r}")
    else:
        diffs.append(f"{label}: {a!r} != {b!r}")


def _cmd_diff(args: argparse.Namespace) -> int:
    readers = (TraceReader(args.a), TraceReader(args.b))
    summaries = [reader.summary() for reader in readers]
    diffs: List[str] = []
    _diff_documents("header", summaries[0][0], summaries[1][0], diffs)
    _diff_documents("footer", summaries[0][1], summaries[1][1], diffs)

    def _records(reader: TraceReader) -> List[Any]:
        body = []
        try:
            for _, parsed in reader.lines():
                if isinstance(parsed, list):
                    body.append(parsed)
        except TraceError:
            pass
        return body

    body_a, body_b = _records(readers[0]), _records(readers[1])
    if len(body_a) != len(body_b):
        diffs.append(f"records: {len(body_a)} != {len(body_b)}")
    shown = 0
    for index, (ra, rb) in enumerate(zip(body_a, body_b)):
        if ra != rb:
            if shown < args.limit:
                diffs.append(f"record {index + 1}: {ra!r} != {rb!r}")
            shown += 1
    if shown > args.limit:
        diffs.append(f"... and {shown - args.limit} more divergent records")
    if not diffs:
        print(f"{args.a} and {args.b} are equivalent")
        return 0
    for diff in diffs:
        print(diff)
    return 1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Replay, inspect and diff persisted simulation traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    replay = commands.add_parser(
        "replay",
        help="replay one trace file, or re-aggregate a directory of cell traces",
    )
    replay.add_argument("path", help="a .trace.jsonl file or a directory of them")
    replay.add_argument(
        "--out", default=None,
        help="directory for the re-aggregated tables (directory mode)",
    )
    replay.add_argument(
        "--group-by", default=None,
        help="comma-separated grouping axes for the re-aggregation "
             "(directory mode; default: workload,collector,failures — match "
             "the grouping of the live sweep to compare tables byte for byte)",
    )
    replay.add_argument(
        "--verify", action="store_true",
        help="audit trace self-consistency before reporting",
    )
    replay.add_argument(
        "--partial", action="store_true",
        help="tolerate a truncated trace (replay the intact prefix)",
    )
    replay.set_defaults(func=_cmd_replay)

    inspect = commands.add_parser(
        "inspect", help="print a trace's provenance, record counts and metrics"
    )
    inspect.add_argument("path", help="a .trace.jsonl file")
    inspect.set_defaults(func=_cmd_inspect)

    diff = commands.add_parser("diff", help="compare two traces record by record")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument(
        "--limit", type=int, default=5, help="max divergent records to print"
    )
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
