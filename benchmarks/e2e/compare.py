"""``run.py --compare A.json B.json``: two result sets, one verdict per row.

One row per (workload, end-to-end metric): both medians, the relative
difference of B against A (positive = B is worse), the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``unresolved`` — the spread of either side's samples (inter-quartile
  distance over median) is wider than the bound, and the sides are not
  cleanly separated in B's favour; the runs cannot tell;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

Plus one row per exact statistic (``sim_fingerprint``, the simulated counts
and ``failed_ops_ratio``) when both sets ran the same seed: a change that
only claims speed must leave them ``same``.  Exits non-zero on ``regressed``
or ``differs``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance of ``samples`` as a share of their median."""
    if len(samples) < 2:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / statistics.median(samples)


def _verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    widest = max(spread(a["samples"]), spread(b["samples"]))
    if better == "lower":
        separated = max(b["samples"]) < min(a["samples"])
    else:
        separated = min(b["samples"]) > max(a["samples"])
    if widest > bound and not separated:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {"worse_by": worse_by, "spread": widest, "verdict": verdict}


def rows(a: Dict[str, Any], b: Dict[str, Any], manifest: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every comparison row for the workloads both documents hold."""
    table: List[Dict[str, Any]] = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        left, right = a["workloads"][workload], b["workloads"][workload]
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            cell_a, cell_b = left["end_to_end"][name], right["end_to_end"][name]
            table.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": cell_a["value"],
                    "b": cell_b["value"],
                    "bound": metric["bound"],
                    **_verdict(cell_a, cell_b, metric["better"], metric["bound"]),
                }
            )
        if left["seed"] != right["seed"]:
            continue  # exact statistics are only comparable under one seed
        exact_a = {**left["exact"], "failed_ops_ratio": left["checks"]["failed_ops_ratio"]}
        exact_b = {**right["exact"], "failed_ops_ratio": right["checks"]["failed_ops_ratio"]}
        for name in exact_a:
            same = exact_a[name] == exact_b.get(name)
            table.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": exact_a[name],
                    "b": exact_b.get(name),
                    "bound": 0,
                    "verdict": "same" if same else "differs",
                }
            )
    return table


def main(path_a: str, path_b: str, manifest: Dict[str, Any]) -> int:
    """Print the comparison; 1 when any row regressed or differs, else 0."""
    documents = []
    for path in (path_a, path_b):
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    table = rows(documents[0], documents[1], manifest)
    print(
        f"{'workload':<22} {'metric':<26} {'A':>14} {'B':>14} "
        f"{'B worse by':>10} {'spread':>7} {'bound':>6}  verdict"
    )
    for row in table:
        if "worse_by" in row:
            print(
                f"{row['workload']:<22} {row['metric']:<26} {row['a']:>14.4f} {row['b']:>14.4f} "
                f"{row['worse_by']:>+10.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}  "
                f"{row['verdict']}"
            )
        else:
            a, b = str(row["a"])[:14], str(row["b"])[:14]
            print(
                f"{row['workload']:<22} {row['metric']:<26} {a:>14} {b:>14} "
                f"{'':>10} {'':>7} {'exact':>6}  {row['verdict']}"
            )
    bad = [row for row in table if row["verdict"] in ("regressed", "differs")]
    unresolved = sum(1 for row in table if row["verdict"] == "unresolved")
    print(f"\n{len(table)} rows: {len(bad)} regressed or differing, {unresolved} unresolved")
    return 1 if bad else 0
