"""End-to-end, per-layer benchmark of the repro toolkit (see README.md here).

    python3 benchmarks/e2e/run.py                       # every workload, seed 1
    python3 benchmarks/e2e/run.py --workload steady-16p --seed 7
    python3 benchmarks/e2e/run.py --trace               # plus the per-layer split
    python3 benchmarks/e2e/run.py --compare A.json B.json

Single process, single thread, ``workers=1``.  Each workload runs in its own
fresh subprocess (``worker.py``); this file starts them one after the other,
turns their per-repetition samples into medians, checks correctness, prints
a name/unit/value table, writes ``results/latest.json`` and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json``, or its per-layer metrics under
``--trace 1``.  Exits non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

import compare
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
#: Set-up samples per untraced run (fresh processes; the median is reported).
SETUP_SAMPLES = 5
#: Stage rates of the multi-stage workloads (``workloads.py`` times the stages);
#: a single-stage workload's rate is its ``work_per_s``.
STAGE_RATES = (
    "sim_msgs_per_s",
    "replay_records_per_s",
    "verify_records_per_s",
    "explore_execs_per_s",
    "fuzz_execs_per_s",
)
#: The contract's per-invocation ceiling is 180 s; a stuck child dies before it.
CHILD_TIMEOUT_S = 150.0


def load_manifest() -> Dict[str, Any]:
    """The benchmark's declaration: workloads, metrics, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _spawn(
    options: argparse.Namespace,
    workload: str,
    tmp: str,
    *,
    trace: int = 0,
    seconds: Optional[float] = None,
    min_reps: Optional[int] = None,
    setup_only: bool = False,
) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(options.seed),
        "--seconds", str(options.seconds if seconds is None else seconds),
        "--min-reps", str(options.min_reps if min_reps is None else min_reps),
        "--scale", str(options.scale),
        "--trace", str(trace),
        "--tmp", tmp,
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command += ["--spans-out", os.path.join(RESULTS, f"trace-{workload}.json")]
    finished = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if finished.returncode != 0:
        raise SystemExit(f"workload {workload}: worker exited with code {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def _sampled(samples: Sequence[float], unit: str) -> Dict[str, Any]:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": list(samples),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _stage_rate(repetition: Dict[str, Any], rate: str) -> float:
    items, _wall_s, _cpu_s, host_s = repetition["stages"][rate]
    return _ratio(items, host_s)


def _per_layer(untraced: List[Dict[str, Any]], traced: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (0 where a layer did nothing)."""
    layers, counts = traced["layers"], traced["counts"]
    # Span seconds are wall seconds of the traced repetition; one factor puts
    # them on the same host-seconds scale as the rates (see calibrate.py).
    slowdown = _ratio(traced["cpu_s"], traced["host_s"])
    metrics: Dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = layers[name]["calls"]
        metrics[f"{name}.busy_s"] = _ratio(layers[name]["busy_s"], slowdown)
        metrics[f"{name}.self_s"] = _ratio(layers[name]["self_s"], slowdown)
    metrics["untraced.self_s"] = _ratio(traced["wall_s"] - traced["top_level_busy_s"], slowdown)
    metrics["trace_overhead_ratio"] = _ratio(
        traced["host_s"], statistics.median(rep["host_s"] for rep in untraced)
    )
    metrics["host.slowdown_ratio"] = statistics.median(
        _ratio(rep["cpu_s"], rep["host_s"]) for rep in [*untraced, traced]
    )
    for rate in STAGE_RATES:
        samples = [_stage_rate(rep, rate) for rep in untraced if rate in rep["stages"]]
        metrics[f"stage.{rate}"] = statistics.median(samples) if samples else 0.0
    messages = counts.get("messages", 0)
    checkpoints = counts.get("checkpoints", 0)
    metrics.update(
        {
            "node.forced_checkpoint_ratio": _ratio(counts.get("forced", 0), checkpoints),
            "gc.collected_ratio": _ratio(counts.get("collected", 0), checkpoints),
            "engine.events_per_msg": _ratio(traced["processed_events"], messages),
            "trace.bytes_per_record": _ratio(
                counts.get("trace_bytes", 0), counts.get("trace_records", 0)
            ),
            "sqlstore.txn_per_cell": _ratio(
                layers["sqlstore.enqueue"]["calls"] + layers["sqlstore.append"]["calls"],
                counts.get("cells", 0),
            ),
            "gc.retained_max_per_process": counts.get("retained_max_per_process", 0),
        }
    )
    return metrics


def measure(options: argparse.Namespace, workload: str, units: Dict[str, str]) -> Dict[str, Any]:
    """Run one workload and fold the worker's samples into the result row."""
    os.makedirs(RESULTS, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    try:
        if options.trace:
            # Per-layer run: a short untraced phase (overhead base, stage rates),
            # then the traced repetition.  End-to-end numbers come from --trace 0.
            others: List[Dict[str, Any]] = []
            child = _spawn(
                options, workload, tmp, trace=1, seconds=options.seconds / 2, min_reps=1
            )
        else:
            others = [
                _spawn(options, workload, tmp, setup_only=True) for _ in range(SETUP_SAMPLES - 1)
            ]
            child = _spawn(options, workload, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups = [process["setup_s"] for process in [*others, child]]
    setup_walls = [process["setup_wall_s"] for process in [*others, child]]
    repetitions = child["repetitions"]
    everything = repetitions + ([child["traced"]] if options.trace else [])

    checks = [(name, passed) for rep in everything for name, passed in rep["checks"]]
    checks.append(
        ("same_sim_fingerprint", len({rep["fingerprint"] for rep in everything}) == 1)
    )
    failures = [name for name, passed in checks if not passed]
    for name in sorted(set(failures)):
        print(f"FAILED check on {workload}: {name}", file=sys.stderr)

    row: Dict[str, Any] = {
        "seed": options.seed,
        "end_to_end": {
            "setup_s": _sampled(setups, units["setup_s"]),
            "work_per_s": _sampled(
                [_ratio(rep["work"], rep["host_s"]) for rep in repetitions], units["work_per_s"]
            ),
            "peak_rss_mb": _sampled([child["peak_rss_mb"]], units["peak_rss_mb"]),
        },
        "stage_rates": {
            rate: _sampled([_stage_rate(rep, rate) for rep in repetitions], "1/s")
            for rate in repetitions[0]["stages"]
        },
        # As measured, before the host-speed correction (see calibrate.py).
        "uncorrected": {
            "setup_wall_s": _sampled(setup_walls, "s"),
            "work_per_wall_s": _sampled(
                [_ratio(rep["work"], rep["wall_s"]) for rep in repetitions], "1/s"
            ),
            "work_per_cpu_s": _sampled(
                [_ratio(rep["work"], rep["cpu_s"]) for rep in repetitions], "1/s"
            ),
            "host_slowdown": _sampled(
                [_ratio(rep["cpu_s"], rep["host_s"]) for rep in repetitions], "ratio"
            ),
        },
        "unit_of_work": child["unit_of_work"],
        "exact": {"sim_fingerprint": repetitions[0]["fingerprint"], **repetitions[0]["counts"]},
        "checks": {
            "attempted": len(checks),
            "failed": len(failures),
            "failed_names": sorted(set(failures)),
            "failed_ops_ratio": _ratio(len(failures), len(checks)),
        },
        "repetitions": [
            {key: rep[key] for key in ("work", "wall_s", "cpu_s", "host_s")}
            for rep in repetitions
        ],
    }
    if options.trace:
        row["per_layer"] = _per_layer(repetitions, child["traced"])
    return row


def _git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # a bare checkout (the driver's) is not a repository
    found = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True, check=False
    )
    return found.stdout.strip() or None


def print_table(name: str, row: Dict[str, Any], units: Dict[str, str]) -> None:
    """The name/unit/value table of one workload."""
    print(f"\n== {name} (seed {row['seed']}) ==")
    print(f"unit of work: {row['unit_of_work']}")
    print(f"{'metric':<40} {'unit':<8} {'median':>14} {'min':>14} {'max':>14} {'n':>3}")
    for section in ("end_to_end", "stage_rates", "uncorrected"):
        for metric, cell in row[section].items():
            print(
                f"{metric:<40} {cell['unit']:<8} {cell['value']:>14.4f} "
                f"{cell['min']:>14.4f} {cell['max']:>14.4f} {cell['n']:>3}"
            )
    checks = row["checks"]
    print(f"{'failed_ops_ratio':<40} {'ratio':<8} {checks['failed_ops_ratio']:>14.4f}"
          f"   ({checks['failed']} of {checks['attempted']} checks failed)")
    for key, value in row["exact"].items():
        print(f"{key:<40} {'exact':<8} {value!s:>14}")
    if "per_layer" in row:
        for metric, value in row["per_layer"].items():
            if value:
                print(f"{metric:<40} {units[metric]:<8} {value:>14.6f}")


def main() -> int:
    manifest = load_manifest()
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="feeds every spec's seed")
    parser.add_argument(
        "--seconds", type=float, default=float(manifest["run_seconds"]),
        help="wall time the untraced repetitions measure for",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: one extra repetition with span wrappers; report the per-layer metrics",
    )
    parser.add_argument("--min-reps", type=int, default=3, help="fewest measured repetitions")
    parser.add_argument("--scale", type=float, default=1.0, help="input size (smoke test only)")
    parser.add_argument("--out", default=os.path.join(RESULTS, "latest.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    options = parser.parse_args()
    if options.compare:
        return compare.main(options.compare[0], options.compare[1], manifest)

    document: Dict[str, Any] = {
        "provenance": {
            "seed": options.seed,
            "seconds": options.seconds,
            "min_reps": options.min_reps,
            "scale": options.scale,
            "trace": options.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
        },
        "workloads": {},
    }
    units = {
        metric["name"]: metric["unit"]
        for metric in manifest["end_to_end"] + manifest["per_layer"]
    }
    for name in [options.workload] if options.workload else names:
        row = measure(options, name, units)
        document["workloads"][name] = row
        print_table(name, row, units)
        if options.trace:
            metrics = {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in row["per_layer"].items()
            }
        else:
            metrics = {
                metric: {"value": cell["value"], "unit": cell["unit"]}
                for metric, cell in row["end_to_end"].items()
            }
        result = {
            "correct": row["checks"]["failed"] == 0,
            "attempted": row["checks"]["attempted"],
            "failed": row["checks"]["failed"],
            "metrics": metrics,
        }
        os.makedirs(os.path.dirname(os.path.abspath(options.out)), exist_ok=True)
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        # One result line per workload; with --workload it is the last line.
        print(json.dumps(result))
    failed = sum(row["checks"]["failed"] for row in document["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
