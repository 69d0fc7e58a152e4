"""The unified ``python -m repro`` command-line façade.

One entry point over every driver grown across the project's subsystems::

    python -m repro campaign ...   # expand/execute/aggregate experiment grids
    python -m repro trace ...      # replay/inspect/diff trace artifacts
    python -m repro explore ...    # schedule-space exploration + counterexamples
    python -m repro fuzz ...       # coverage-guided schedule fuzzing + corpus
    python -m repro live ...       # one experiment on real OS processes
    python -m repro query ...      # canned analytics over a SQL result store

Shared flag conventions (every subcommand that takes the concept spells it
the same way):

``--seed``    one integer seed (drivers of single runs);
``--store``   a SQLite result store path (``.sqlite`` by convention);
``--traces``  a directory of per-cell v2 trace artifacts;
``--json``    machine-readable JSON on stdout instead of rendered tables.

Exit-code semantics, uniform across subcommands:

* ``0`` — success;
* ``1`` — a *domain* finding: failed cells, an oracle violation, an unsafe
  audit, a truncated trace, an incomplete store;
* ``2`` — usage or input errors (no command, unknown flags, malformed
  specs, a missing or non-SQLite store).
"""

from __future__ import annotations

import sys
from typing import Callable, List, Optional, Tuple

#: subcommand -> (one-line help, resolver returning its ``main``).  Lazy
#: imports keep ``python -m repro query --help`` from paying the simulator's
#: import bill.
_SUBCOMMANDS: "dict[str, Tuple[str, Callable[[], Callable[[Optional[List[str]]], int]]]]" = {
    "campaign": (
        "expand, execute and aggregate an experiment campaign "
        "(in-process, in worker processes, or as a claim/lease fabric worker)",
        lambda: __import__(
            "repro.scenarios.campaign.cli", fromlist=["main"]
        ).main,
    ),
    "trace": (
        "replay, inspect and diff persisted simulation traces",
        lambda: __import__("repro.traceio.cli", fromlist=["main"]).main,
    ),
    "explore": (
        "systematically explore message-delivery schedules against the "
        "theorem oracles",
        lambda: __import__("repro.explore.cli", fromlist=["main"]).main,
    ),
    "fuzz": (
        "coverage-guided fuzzing of delivery schedules and fault timings "
        "with a persistent, replayable corpus",
        lambda: __import__("repro.fuzz.cli", fromlist=["main"]).main,
    ),
    "live": (
        "run one experiment on real OS processes over UDP",
        lambda: __import__("repro.live.cli", fromlist=["main"]).main,
    ),
    "query": (
        "canned analytical queries over a campaign result store",
        lambda: __import__("repro.query_cli", fromlist=["main"]).main,
    ),
}


def _usage(stream) -> None:
    print("usage: python -m repro <command> [options]", file=stream)
    print(file=stream)
    print("commands:", file=stream)
    for name, (help_text, _) in _SUBCOMMANDS.items():
        print(f"  {name:<10} {help_text}", file=stream)
    print(file=stream)
    print(
        "shared flags: --seed (run seed), --store (SQLite result store),\n"
        "--traces (trace-artifact directory), --json (JSON stdout).\n"
        "exit codes: 0 success; 1 domain finding (failed cell, violation,\n"
        "unsafe audit, incomplete store); 2 usage or input error.",
        file=stream,
    )
    print(file=stream)
    print("run `python -m repro <command> --help` for the full flags.", file=stream)


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to one subcommand; see the module docstring for semantics."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments:
        _usage(sys.stderr)
        return 2
    command = arguments[0]
    if command in ("-h", "--help"):
        _usage(sys.stdout)
        return 0
    if command not in _SUBCOMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        _usage(sys.stderr)
        return 2
    entry = _SUBCOMMANDS[command][1]()
    try:
        return entry(arguments[1:])
    except BrokenPipeError:
        # Downstream consumer closed early (`repro query ... | head`).
        # Point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise a second time, and report success like any
        # well-behaved filter.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
