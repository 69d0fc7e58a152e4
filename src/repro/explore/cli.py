"""Command-line front end of the schedule-space explorer.

Exhaustively explore the canonical 2-process configuration for one
collector, or sweep the whole protocol × collector grid::

    python -m repro explore run --collector rdt-lgc
    python -m repro explore sweep --processes 2 --messages 6
    python -m repro explore sweep --smoke            # the CI gate sweep
    python -m repro explore sweep --canaries --traces counterexamples/

Budget and reduction knobs::

    python -m repro explore sweep --processes 3 --messages 6 \\
        --max-executions 20000 --no-reduction

Replay a shrunk counterexample artifact (re-executes it live and
byte-compares the fresh trace against the persisted one)::

    python -m repro explore replay counterexamples/canary-unsafe.trace.jsonl

Exit codes: 0 — clean (or ``--expect-violations`` satisfied, or a
byte-identical replay); 1 — violations found (or expectation missed, or
replay diverged); 2 — usage or input error (a refused budget, a missing
trace or one without explorer provenance).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro import api
from repro.explore.explorer import SweepEntry, explore
from repro.explore.program import ExploreConfig, ring_program
from repro.explore.shrink import (
    counterexample_summary,
    persist_counterexample,
    replay_counterexample,
    schedule_to_json,
    shrink,
)
from repro.gc.canaries import CANARY_NAMES
from repro.gc.registry import available_collectors
from repro.scenarios.experiments import explore_sweep_collectors, explore_sweep_configs
from repro.traceio.format import TraceError


def _report_entry(entry: SweepEntry, *, traces: Optional[str], quiet: bool) -> bool:
    """Print one sweep cell; persist its first counterexample.  True == clean."""
    result = entry.result
    stats = result.stats
    status = "ok" if result.ok else "VIOLATION"
    if not stats.complete:
        status += " (budget exhausted)"
    if not quiet or not result.ok:
        print(
            f"{entry.protocol:>14} / {entry.collector:<20} "
            f"{stats.executions:>7} executions  {stats.schedules:>6} schedules  "
            f"{stats.sleep_pruned:>6} pruned  {status}"
        )
    counterexample = result.first
    if counterexample is None:
        return True
    shrunk = shrink(
        counterexample.config, counterexample.schedule, counterexample.violation
    )
    print(f"  violation: {shrunk.violation}")
    print(
        f"  shrunk to {len(shrunk.schedule)} schedule tokens / "
        f"{shrunk.trace_events} trace events "
        f"({shrunk.attempts} shrink executions)"
    )
    print(f"  schedule: {schedule_to_json(shrunk.schedule)}")
    if traces:
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(
            traces, f"{entry.protocol}-{entry.collector}.trace.jsonl"
        )
        persist_counterexample(shrunk, path)
        print(f"  counterexample trace: {path}")
        print(f"  replay with: python -m repro explore replay {path}")
    return False


# ----------------------------------------------------------------------
# run — one configuration
# ----------------------------------------------------------------------
def _explore_entry(config: ExploreConfig, args: argparse.Namespace) -> SweepEntry:
    result = explore(
        config,
        max_executions=args.max_executions,
        reduction=not args.no_reduction,
    )
    return SweepEntry(config.protocol, config.collector, result)


def _cmd_run(args: argparse.Namespace) -> int:
    program = ring_program(
        args.processes, args.messages, crash_pid=0 if args.crash else None
    )
    config = api.load_spec(
        {
            "num_processes": args.processes,
            "program": [step.describe() for step in program],
            "protocol": args.protocol,
            "collector": args.collector,
        },
        kind="explore",
    )
    started = time.perf_counter()
    entry = _explore_entry(config, args)
    elapsed = time.perf_counter() - started
    clean = _report_entry(entry, traces=args.traces, quiet=False)
    stats = entry.result.stats
    rate = stats.executions / elapsed if elapsed > 0 else float("inf")
    print(
        f"explored {stats.executions} prefixes ({stats.schedules} complete "
        f"schedules, deepest {stats.deepest}) in {elapsed:.2f}s — {rate:.0f}/s"
    )
    if not stats.complete:
        print("budget exhausted; re-run with a larger --max-executions to extend")
    return 0 if clean else 1


# ----------------------------------------------------------------------
# sweep — the protocol × collector grid
# ----------------------------------------------------------------------
def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.smoke:
        args.processes, args.messages = 2, 4
        if args.max_executions is None:
            args.max_executions = 30000
    protocols = args.protocols.split(",") if args.protocols else None
    collectors = None
    if args.collectors:
        collectors = tuple((name, {}) for name in args.collectors.split(","))
    elif args.canaries:
        collectors = explore_sweep_collectors(
            sorted(available_collectors() + list(CANARY_NAMES))
        )

    started = time.perf_counter()
    entries: List[SweepEntry] = []
    dirty = 0
    # One cell at a time so progress streams.
    for config in explore_sweep_configs(
        num_processes=args.processes,
        messages=args.messages,
        protocols=protocols,
        collectors=collectors,
        with_crash=args.crash,
    ):
        entries.append(_explore_entry(config, args))
        if not _report_entry(entries[-1], traces=args.traces, quiet=args.quiet):
            dirty += 1
    elapsed = time.perf_counter() - started
    executions = sum(entry.result.stats.executions for entry in entries)
    print(
        f"{len(entries)} configurations, {executions} executions in "
        f"{elapsed:.2f}s; {dirty} with violations"
    )
    if args.expect_violations is not None and dirty != args.expect_violations:
        print(
            f"error: expected exactly {args.expect_violations} violating "
            f"configuration(s), found {dirty}",
            file=sys.stderr,
        )
        return 1
    return 0 if dirty == 0 or args.expect_violations is not None else 1


# ----------------------------------------------------------------------
# replay — a persisted counterexample
# ----------------------------------------------------------------------
def _cmd_replay(args: argparse.Namespace) -> int:
    replay = replay_counterexample(args.path)
    print(counterexample_summary(replay))
    return 0 if replay.byte_identical else 1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _add_exploration_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--processes", type=int, default=2, help="process count (default: 2)"
    )
    parser.add_argument(
        "--messages", type=int, default=6, help="message budget (default: 6)"
    )
    parser.add_argument(
        "--crash", action="store_true",
        help="inject a process-0 crash before the final checkpoint round",
    )
    parser.add_argument(
        "--max-executions", type=int, default=None,
        help="execution budget (default: none — exhaustive)",
    )
    parser.add_argument(
        "--no-reduction", action="store_true",
        help="disable the sleep-set reduction (literally every interleaving)",
    )
    parser.add_argument(
        "--traces", default=None,
        help="directory for shrunk counterexample trace artifacts",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Run the ``repro explore`` command line.

    Args:
        argv: argument list (defaults to ``sys.argv[1:]``).

    Returns:
        The process exit code (see the module docstring).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro explore",
        description=(
            "Systematically explore message-delivery interleavings of small "
            "configurations against the paper's theorem oracles."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="explore one configuration")
    _add_exploration_knobs(run)
    run.add_argument("--protocol", default="fdas", help="protocol name")
    run.add_argument("--collector", default="rdt-lgc", help="collector name")
    run.set_defaults(func=_cmd_run)

    sweep_cmd = commands.add_parser(
        "sweep", help="explore the protocol x collector grid"
    )
    _add_exploration_knobs(sweep_cmd)
    sweep_cmd.add_argument(
        "--protocols", default=None,
        help="comma-separated protocol names (default: all)",
    )
    sweep_cmd.add_argument(
        "--collectors", default=None,
        help="comma-separated collector names (default: all but the canaries)",
    )
    sweep_cmd.add_argument(
        "--canaries", action="store_true",
        help="also sweep the deliberately broken canary collectors",
    )
    sweep_cmd.add_argument(
        "--expect-violations", type=int, default=None,
        help="exit 0 only if exactly this many configurations violate "
             "(CI conformance mode)",
    )
    sweep_cmd.add_argument(
        "--smoke", action="store_true",
        help="the CI gate shape: exhaustive 2-process / 4-message grid",
    )
    sweep_cmd.add_argument(
        "--quiet", action="store_true", help="only print violating cells"
    )
    sweep_cmd.set_defaults(func=_cmd_sweep)

    replay = commands.add_parser(
        "replay", help="replay a persisted counterexample byte for byte"
    )
    replay.add_argument("path", help="a counterexample .trace.jsonl artifact")
    replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TraceError, FileNotFoundError) as exc:
        # A refused spec or budget, or a replay path that is missing, not a
        # trace, or a trace without explorer provenance.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
