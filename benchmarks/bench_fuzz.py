"""Fuzzer benchmark: coverage guidance vs unguided random mutation.

Runs the coverage-guided fuzzer and its no-feedback baseline (stacked
random mutation of the seed schedules, no corpus retention — the same
mutation operators and seeds, with only the coverage feedback loop removed)
on the same targets, budgets and run seeds, and compares the number of
distinct coverage features each reaches.  The claim under test is the
fuzzer's reason to exist: the coverage signal — novel zigzag shapes,
zigzag-kernel SCC structure, retained-set sizes, recovery-line depths — steers
the mutation budget toward structurally new executions.

The gate: summed over the matrix, guided coverage must be **strictly
greater** than unguided coverage (``--require-guided-win``; the CI fuzz
gate passes the flag).  Per-cell ties are tolerated — tiny targets
saturate — but the aggregate must favour guidance.

Writes ``benchmarks/results/BENCH_fuzz.json``.  Run directly::

    python benchmarks/bench_fuzz.py            # full matrix
    python benchmarks/bench_fuzz.py --smoke    # seconds-sized
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.fuzz import fuzz  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: (target, budget, run seeds)
FULL_MATRIX = (
    ("ring", 150, (0, 1)),
    ("ring-crash", 150, (0, 1)),
    ("ring3-crash", 200, (0, 1, 2)),
)
SMOKE_MATRIX = (
    ("ring", 100, (0,)),
    ("ring3-crash", 120, (0,)),
)


def _measure(target: str, budget: int, seed: int, *, guided: bool) -> Dict[str, Any]:
    started = time.perf_counter()
    result = fuzz(
        target,
        budget=budget,
        seed=seed,
        guided=guided,
        minimize=False,
        explorer_seed_executions=0,
    )
    elapsed = time.perf_counter() - started
    if not result.ok:
        raise SystemExit(
            f"benchmark target {target} violated an oracle: "
            f"{result.findings[0].violation}"
        )
    stats = result.stats
    return {
        "executions": stats.executions,
        "features": stats.features,
        "corpus": len(result.corpus),
        "duplicates": stats.duplicates,
        "invalid": stats.invalid,
        "dimension_counts": stats.dimension_counts,
        "seconds": round(elapsed, 4),
        "execs_per_second": (
            round(stats.executions / elapsed, 1) if elapsed else None
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="seconds-sized matrix")
    parser.add_argument(
        "--require-guided-win", action="store_true",
        help="exit 1 unless guided coverage strictly exceeds unguided "
             "coverage summed over the matrix (the CI gate)",
    )
    parser.add_argument(
        "--output", default=os.path.join(RESULTS_DIR, "BENCH_fuzz.json"),
        help="result document path",
    )
    args = parser.parse_args(argv)

    matrix = SMOKE_MATRIX if args.smoke else FULL_MATRIX
    rows: List[Dict[str, Any]] = []
    guided_total = 0
    unguided_total = 0
    print(f"{'cell':>24} {'guided':>16} {'random':>16} {'delta':>7}")
    for target, budget, seeds in matrix:
        for seed in seeds:
            guided = _measure(target, budget, seed, guided=True)
            unguided = _measure(target, budget, seed, guided=False)
            guided_total += guided["features"]
            unguided_total += unguided["features"]
            rows.append(
                {
                    "target": target,
                    "budget": budget,
                    "seed": seed,
                    "guided": guided,
                    "unguided": unguided,
                    "delta": guided["features"] - unguided["features"],
                }
            )
            cell = f"{target}/b{budget}/s{seed}"
            guided_text = f"{guided['features']}f/{guided['seconds']}s"
            unguided_text = f"{unguided['features']}f/{unguided['seconds']}s"
            print(
                f"{cell:>24} {guided_text:>16} {unguided_text:>16} "
                f"{guided['features'] - unguided['features']:>+7}"
            )
    print(
        f"total coverage: guided {guided_total} vs unguided {unguided_total} "
        f"over {len(rows)} cells"
    )
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "matrix": rows,
                "guided_total": guided_total,
                "unguided_total": unguided_total,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    print(f"results written to {args.output}")
    if args.require_guided_win and guided_total <= unguided_total:
        print(
            "error: coverage guidance did not beat random mutation "
            f"({guided_total} <= {unguided_total})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
