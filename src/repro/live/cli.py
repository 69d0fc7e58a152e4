"""Command-line front end of the live backend.

Run the middleware on real processes and sockets::

    python -m repro live --processes 3 --duration 30 --collector rdt-lgc

With message loss, a SIGKILL crash/recover and a persisted artifact::

    python -m repro live --processes 3 --duration 30 --drop 0.1 \\
        --crash 12:1 --trace live.trace.jsonl --audit safety

The flags become a single-run document that :func:`repro.api.load_spec`
validates (``kind="live"``) before any worker process is spawned.  The
merged artifact is a standard v2 trace: inspect it with ``python -m repro
trace inspect`` and check its invariants with ``python -m repro trace replay
--verify``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro import api
from repro.live.coordinator import LiveOptions, run_live


def _parse_crash(value: str) -> Tuple[float, int]:
    try:
        time_text, pid_text = value.split(":", 1)
        return (float(time_text), int(pid_text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"crash must look like TIME:PID, got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro live",
        description="Run one checkpointing/GC experiment on real OS processes",
    )
    parser.add_argument("--processes", type=int, default=3, help="number of processes")
    parser.add_argument("--duration", type=float, default=30.0, help="virtual duration")
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument("--protocol", default="fdas", help="checkpointing protocol")
    parser.add_argument("--collector", default="rdt-lgc", help="garbage collector")
    parser.add_argument(
        "--workload",
        default="uniform-random",
        help="workload generator",
    )
    parser.add_argument("--drop", type=float, default=0.0, help="message loss probability")
    parser.add_argument("--base-latency", type=float, default=1.0, help="link base latency")
    parser.add_argument("--jitter", type=float, default=0.5, help="link latency jitter")
    parser.add_argument(
        "--crash",
        type=_parse_crash,
        action="append",
        default=[],
        metavar="TIME:PID",
        help="SIGKILL PID at virtual TIME and run a recovery session (repeatable)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.02,
        help="wall seconds per virtual time unit",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH", help="write the merged trace artifact here"
    )
    parser.add_argument(
        "--audit", default="safety", help="Theorem-4 audit of the final state: off, safety or full"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one live experiment and print its summary."""
    args = build_parser().parse_args(argv)
    document = {
        "num_processes": args.processes,
        "duration": args.duration,
        "workload": args.workload,
        "protocol": args.protocol,
        "collector": args.collector,
        "network": {
            "base_latency": args.base_latency,
            "jitter": args.jitter,
            "drop_probability": args.drop,
        },
        "failures": args.crash,
        "seed": args.seed,
        "audit": args.audit,
        "trace": args.trace,
    }
    try:
        config = api.load_spec(document, kind="live")
    except api.SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    live = run_live(config, LiveOptions(time_scale=args.time_scale))
    result = live.result
    for key, value in result.summary().items():
        print(f"{key:>26}: {value}")
    for recovery in result.recoveries:
        print(
            f"{'recovery':>26}: t={recovery.time:.1f} faulty={list(recovery.faulty)} "
            f"line={list(recovery.recovery_line)} "
            f"rolled_back={recovery.rolled_back_processes}"
        )
    for audit in result.audits:
        verdict = "safe" if audit.is_safe else "UNSAFE"
        print(f"{'audit':>26}: {audit.label} {verdict}")
    print(f"{'trace':>26}: {live.trace_path}")
    return 0 if result.all_audits_safe else 1


if __name__ == "__main__":  # pragma: no cover - module CLI entry point
    sys.exit(main())
