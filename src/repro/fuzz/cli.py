"""Command-line front end of the coverage-guided schedule fuzzer.

Fuzz a built-in target with a persistent corpus::

    python -m repro fuzz run --target ring --budget 300 --corpus .fuzz-corpus
    python -m repro fuzz run --target canary-unsafe --expect-violations 1

Replay one persisted corpus entry (rehydrates the trace, re-executes it
live, byte-compares the artifacts)::

    python -m repro fuzz replay .fuzz-corpus/entries/<id>.trace.jsonl

Summarise a corpus directory::

    python -m repro fuzz stats .fuzz-corpus

Counterexamples the fuzzer persists under ``<corpus>/counterexamples/`` are
ordinary explorer artifacts — replay them with
``python -m repro explore replay <path>``.

Exit codes: 0 — clean run (or ``--expect-violations`` satisfied);
1 — violations found (or expectation missed, or replay diverged);
2 — usage or input error (unknown target, a garbled corpus index, a
missing trace or one without explorer provenance).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.fuzz.corpus import Corpus, replay_corpus_entry
from repro.fuzz.fuzzer import builtin_targets, fuzz
from repro.traceio.format import TraceError


# ----------------------------------------------------------------------
# run — one fuzzing campaign
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    result = fuzz(
        args.target,
        budget=args.budget,
        seed=args.seed,
        corpus=args.corpus,
        guided=not args.random,
        minimize=not args.no_minimize,
        explorer_seed_executions=args.explorer_seeds,
        stop_after_findings=args.stop_after_findings,
    )
    elapsed = time.perf_counter() - started
    stats = result.stats
    mode = "random" if args.random else "guided"
    print(
        f"fuzz {result.target.name} ({mode}): {stats.executions} executions "
        f"(+{stats.seed_executions} seeding) in {elapsed:.2f}s — "
        f"{stats.features} coverage features, corpus {len(result.corpus)} "
        f"(+{stats.corpus_added}), {stats.duplicates} duplicates skipped"
    )
    dims = ", ".join(
        f"{tag}={count}" for tag, count in stats.dimension_counts.items()
    )
    if dims:
        print(f"  coverage: {dims}")
    for finding in result.findings:
        violation = finding.violation
        print(f"  VIOLATION [{violation.kind}]: {violation.detail}")
        if finding.shrunk is not None:
            print(
                f"    shrunk to {len(finding.shrunk.schedule)} tokens "
                f"({finding.shrunk.attempts} shrink executions)"
            )
        if finding.artifact is not None:
            print(f"    counterexample trace: {finding.artifact}")
            print(f"    replay with: python -m repro explore replay {finding.artifact}")
    if result.corpus.root is not None:
        print(f"  corpus saved: {result.corpus.root}")
    if args.report:
        os.makedirs(os.path.dirname(args.report) or ".", exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(result.as_document(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"  report: {args.report}")
    found = len(result.findings)
    if args.expect_violations is not None:
        if found != args.expect_violations:
            print(
                f"error: expected exactly {args.expect_violations} distinct "
                f"violation kind(s), found {found}",
                file=sys.stderr,
            )
            return 1
        return 0
    return 0 if found == 0 else 1


# ----------------------------------------------------------------------
# replay — one persisted corpus entry
# ----------------------------------------------------------------------
def _cmd_replay(args: argparse.Namespace) -> int:
    replay = replay_corpus_entry(args.path)
    verdict = "yes" if replay.byte_identical else "NO"
    print(
        f"{replay.path}: entry {replay.entry_id}, {replay.trace_events} "
        f"events\n  byte-identical re-execution: {verdict}"
    )
    return 0 if replay.byte_identical else 1


# ----------------------------------------------------------------------
# stats — summarise a corpus directory
# ----------------------------------------------------------------------
def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = Corpus.load(args.corpus)
    print(
        f"{args.corpus}: {len(corpus)} entries, "
        f"{len(corpus.coverage)} coverage features over "
        f"{corpus.coverage.observed} observed executions"
    )
    dims = ", ".join(
        f"{tag}={count}"
        for tag, count in corpus.coverage.dimension_counts().items()
    )
    if dims:
        print(f"  coverage: {dims}")
    by_op: dict = {}
    for entry in corpus.ordered():
        by_op[entry.op] = by_op.get(entry.op, 0) + 1
    if by_op:
        ops = ", ".join(f"{op}={count}" for op, count in sorted(by_op.items()))
        print(f"  origins: {ops}")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """Run the ``repro fuzz`` command line.

    Args:
        argv: argument list (defaults to ``sys.argv[1:]``).

    Returns:
        The process exit code (see the module docstring).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description=(
            "Coverage-guided fuzzing of delivery schedules and fault "
            "timings against the paper's theorem oracles."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one fuzzing campaign")
    run.add_argument(
        "--target", default="ring",
        help=f"built-in target (one of: {', '.join(sorted(builtin_targets()))})",
    )
    run.add_argument(
        "--budget", type=int, default=300,
        help="candidate executions to spend (default: 300)",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="run seed (default: 0)"
    )
    run.add_argument(
        "--corpus", default=None,
        help="corpus directory (persistent, warm-start capable; "
             "default: in-memory)",
    )
    run.add_argument(
        "--random", action="store_true",
        help="disable coverage guidance (the benchmark's baseline mode)",
    )
    run.add_argument(
        "--no-minimize", action="store_true",
        help="skip shrinking found violations",
    )
    run.add_argument(
        "--explorer-seeds", type=int, default=48,
        help="execution budget of the frontier-seeding explorer walk "
             "(0 disables; default: 48)",
    )
    run.add_argument(
        "--stop-after-findings", type=int, default=None,
        help="stop early after this many distinct violation kinds",
    )
    run.add_argument(
        "--expect-violations", type=int, default=None,
        help="exit 0 only if exactly this many distinct violation kinds "
             "are found (CI conformance mode)",
    )
    run.add_argument(
        "--report", default=None, help="write a JSON run report to this path"
    )
    run.set_defaults(func=_cmd_run)

    replay = commands.add_parser(
        "replay", help="replay one persisted corpus entry byte-for-byte"
    )
    replay.add_argument("path", help="an entries/<id>.trace.jsonl artifact")
    replay.set_defaults(func=_cmd_replay)

    stats = commands.add_parser("stats", help="summarise a corpus directory")
    stats.add_argument("corpus", help="the corpus directory")
    stats.set_defaults(func=_cmd_stats)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TraceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(main())
