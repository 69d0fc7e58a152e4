"""Perf scaling sweep: blocked bitset kernel + incremental CCP vs the old path.

For each (processes, messages) configuration the same seeded execution is
analysed at ``samples`` evenly spaced instants, the way the simulator's
``audit="full"`` mode samples a run, through both engines:

* **old path** (the pre-kernel architecture, kept as the executable
  reference): at every instant the CCP is rebuilt from the raw event log
  (fresh vector-clock replay) and the analyses are recomputed with
  :class:`~repro.ccp.zigzag.BruteForceZigzagAnalysis` message-level BFS plus
  uncached Theorem-1/2 and recovery-line oracles;
* **new path**: the :class:`~repro.simulation.trace.TraceRecorder`'s
  checkpoint-knowledge tracker serves the Theorem-1/2 retained sets and
  recovery lines, and the blocked bitset
  :class:`~repro.ccp.zigzag.ZigzagAnalysis` kernel answers the zigzag
  queries over the level-batched condensation DAG.  The tracker of a small
  or medium row is born at the first instant (one catch-up replay of the log
  fed so far, billed to that instant) and delta-maintained afterwards.

The sweep is organised in three tiers:

* ``small`` — the old path is measured at *every* instant;
* ``medium`` — the old path is minutes-slow per instant, so it is measured at
  the final ``OLD_PATH_TAIL_SAMPLES`` instants only (never fewer than 3
  measured samples per row: single-sample baselines were pure noise);
* ``large`` — datacenter-scale rows (up to 128 processes / 10^5 messages)
  on a recorder born at event 0 that keeps the whole log, as every run
  does.  Each instant times what ``audit="full"`` and a recovery session
  ask of the knowledge view at that scale: both retained sets and the
  recovery line of a failure of process 0 (the zigzag kernel is measured
  against brute force in the smaller tiers).  The old path is **not** run
  at this scale; the per-instant cost of its full suite is extrapolated
  from the measured 8-process rows via a power-law fit and the rows say so
  explicitly (``"old_extrapolated": true``).

A separate **memory pass** (tracemalloc, kept out of the timing loops — the
tracer costs ~2x) measures the peak traced allocation of a medium-tier run,
which is the ``memory`` section of the output and the basis of the memory
regression gate in :mod:`benchmarks.check_regression`.

Results are written to ``BENCH_perf.json`` at the repository root so
:mod:`benchmarks.check_regression` (and future PRs) have a machine-readable
perf trajectory.

Run directly::

    python benchmarks/bench_perf_scaling.py              # small + medium
    python benchmarks/bench_perf_scaling.py --quick      # smoke-sized subset
    python benchmarks/bench_perf_scaling.py --tier large # datacenter tier
    python benchmarks/bench_perf_scaling.py --profile    # + cProfile per tier
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.ccp.checkpoint import CheckpointId  # noqa: E402
from repro.ccp.incremental import IncrementalAnalysisView  # noqa: E402
from repro.ccp.pattern import CCP  # noqa: E402
from repro.ccp.zigzag import BruteForceZigzagAnalysis  # noqa: E402
from repro.core.optimality import audit_garbage_collection  # noqa: E402
from repro.recovery.recovery_line import recovery_line  # noqa: E402
from repro.scenarios.random_patterns import (  # noqa: E402
    TraceFeeder,
    random_ccp_script,
)
from repro.simulation.trace import TraceRecorder  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_perf.json")

KERNEL_NAME = "zigzag-blocked-bitset+incremental-ccp"

# (processes, messages, samples), per tier.  The medium tier's final row is
# the acceptance-criteria configuration of the original kernel PR: a
# full-audit run at 8 processes and >= 2000 messages.  The large tier's
# 64-process row is the datacenter acceptance configuration: 10^5 messages
# analysed at < 50 ms per instant *on average* (``new_per_instant_s``, what
# check_regression.LARGE_LATENCY_CEILING_S gates); the worst instant is
# reported as ``new_per_instant_max_s`` and is not gated.
TIERS: Dict[str, List[Tuple[int, int, int]]] = {
    "small": [
        (2, 120, 3),
        (3, 200, 3),
        (4, 500, 4),
    ],
    "medium": [
        (8, 1000, 4),
        (8, 2000, 4),
    ],
    "large": [
        (32, 20000, 60),
        (64, 100000, 100),
        (128, 100000, 100),
    ],
}
FULL_SWEEP: List[Tuple[int, int, int]] = TIERS["small"] + TIERS["medium"]
SMOKE_SWEEP: List[Tuple[int, int, int]] = [(2, 120, 3), (3, 200, 3)]
LARGE_SWEEP: List[Tuple[int, int, int]] = TIERS["large"]
# Above this message count the old path is measured at the tail instants only.
OLD_PATH_EVERY_INSTANT_LIMIT = 500
# How many (final) instants the old path is measured at beyond that limit.
# Single-sample baselines made the committed speedups noise; three is the
# floor for a defensible mean.
OLD_PATH_TAIL_SAMPLES = 3
# The medium-tier configuration the memory pass measures.
MEMORY_CONFIG: Tuple[int, int, int] = (8, 2000, 4)
SEED = 1
CHECKPOINT_RATE = 0.12


def _retained_everything(ccp: CCP) -> Dict[int, List[int]]:
    """A no-GC retained map: every stable checkpoint still on storage."""
    return {
        pid: [cid.index for cid in ccp.stable_ids(pid)] for pid in ccp.processes
    }


def _suite_new(recorder: TraceRecorder) -> Dict[str, int]:
    """The audited analysis suite through the incremental + bitset path."""
    ccp = recorder.ccp()
    zigzag = ccp.zigzag
    useless = zigzag.useless_checkpoints()
    pairs = zigzag.zigzag_pairs()
    audit = audit_garbage_collection(ccp.analysis_provider, _retained_everything(ccp))
    line = recovery_line(ccp, [0])
    return {
        "useless": len(useless),
        "pairs": len(pairs),
        "safety_violations": len(audit.safety_violations),
        "optimality_violations": len(audit.optimality_violations),
        "line_total": line.total_index(),
    }


def _suite_large(recorder: TraceRecorder) -> Dict[str, int]:
    """The analysis suite of the large tier.

    What ``audit="full"`` (both retained sets) and a recovery session (the
    recovery line) ask at every analysis instant, read from the recorder's
    knowledge view over the whole log.
    """
    ccp = recorder.ccp()
    retained_t1 = ccp.analysis_provider.theorem1_retained()
    retained_t2 = ccp.analysis_provider.theorem2_retained()
    line = recovery_line(ccp, [0])
    return {
        "retained_t1": len(retained_t1),
        "retained_t2": len(retained_t2),
        "line_total": line.total_index(),
    }


def _suite_old(recorder: TraceRecorder) -> Dict[str, int]:
    """The same suite through the old path: from-scratch CCP + brute force.

    Uses the literal per-checkpoint theorem transcriptions and the uncached
    Lemma-1 evaluation directly, *not* ``ccp.analysis_provider`` — the
    recorder's knowledge view is the new path being measured against.
    """
    from repro.core.obsolete import _is_retained_theorem1, _is_retained_theorem2
    from repro.recovery.recovery_line import _recovery_line_lemma1

    ccp = CCP(
        recorder.log,
        recorded_dvs=recorder.recorded_checkpoint_dvs(),
        analysis_provider=IncrementalAnalysisView(recorder, recorder.knowledge_tracker),
    )
    zigzag = BruteForceZigzagAnalysis(ccp)
    useless = zigzag.useless_checkpoints()
    pairs = zigzag.zigzag_pairs()
    all_stable = [cid for pid in ccp.processes for cid in ccp.stable_ids(pid)]
    required = {cid for cid in all_stable if _is_retained_theorem1(ccp, cid)}
    allowed = {cid for cid in all_stable if _is_retained_theorem2(ccp, cid)}
    retained_ids = {
        CheckpointId(pid, index)
        for pid, indices in _retained_everything(ccp).items()
        for index in indices
    }
    safety_violations = required - retained_ids
    optimality_violations = retained_ids - allowed
    line = _recovery_line_lemma1(ccp, {0})
    return {
        "useless": len(useless),
        "pairs": len(pairs),
        "safety_violations": len(safety_violations),
        "optimality_violations": len(optimality_violations),
        "line_total": line.total_index(),
    }


def _sample_points(script_len: int, samples: int) -> List[int]:
    return sorted(
        {max(1, round(script_len * (i + 1) / samples)) for i in range(samples)}
    )


def run_config(
    num_processes: int,
    num_messages: int,
    samples: int,
    *,
    seed: int = SEED,
    trace_dir: Optional[str] = None,
    large: bool = False,
) -> Dict[str, Any]:
    """Benchmark one configuration; returns a BENCH_perf.json row.

    With ``trace_dir`` the measured pattern is additionally persisted as a
    replayable :mod:`repro.traceio` artifact, so a regression seen in CI can
    be re-analysed offline against the *exact* pattern that was measured.
    With ``large`` (the large tier) every instant runs :func:`_suite_large`;
    the old path is not run and its cost is filled in by
    :func:`extrapolate_old_costs`.
    """
    script = random_ccp_script(
        seed,
        num_processes=num_processes,
        num_messages=num_messages,
        checkpoint_rate=CHECKPOINT_RATE,
    )
    recorder = TraceRecorder(num_processes)
    if large:
        # Born at event 0 and delta-maintained throughout, as the committed
        # rows assume — else the first timed instant would absorb the catch-up.
        recorder.ccp()
    writer = None
    if trace_dir is not None:
        from repro.traceio.writer import TraceWriter

        writer = TraceWriter.scripted(
            os.path.join(
                trace_dir, f"perf_p{num_processes}_m{num_messages}.trace.jsonl"
            ),
            num_processes,
            seed=seed,
            workload=f"random_ccp_script(checkpoint_rate={CHECKPOINT_RATE})",
            meta={"suite": "bench_perf_scaling", "samples": samples},
        )
        recorder.attach_sink(writer)
    feeder = TraceFeeder(recorder)
    measure_old_everywhere = (
        not large and num_messages <= OLD_PATH_EVERY_INSTANT_LIMIT
    )

    sample_points = _sample_points(len(script), samples)
    old_tail_points = (
        set() if large else set(sample_points[-OLD_PATH_TAIL_SAMPLES:])
    )
    instant_times: List[float] = []
    old_total = 0.0
    old_instants = 0
    last_new: Optional[Dict[str, int]] = None
    last_old: Optional[Dict[str, int]] = None

    consumed = 0
    for point in sample_points:
        feeder.feed(script[consumed:point])
        consumed = point

        start = time.perf_counter()
        last_new = _suite_large(recorder) if large else _suite_new(recorder)
        instant_times.append(time.perf_counter() - start)

        if measure_old_everywhere or point in old_tail_points:
            start = time.perf_counter()
            last_old = _suite_old(recorder)
            old_total += time.perf_counter() - start
            old_instants += 1

    if writer is not None:
        writer.seal()
    assert last_new is not None
    if not large:
        assert last_old is not None
        if last_new != last_old:
            raise AssertionError(
                f"old and new paths disagree at the final instant: "
                f"{last_old} != {last_new}"
            )

    ccp = recorder.ccp()
    new_per_instant = sum(instant_times) / len(instant_times)
    row: Dict[str, Any] = {
        "kernel": KERNEL_NAME,
        "processes": num_processes,
        "messages": num_messages,
        "samples": len(sample_points),
        "stable_checkpoints": ccp.total_stable_checkpoints(),
        "new_per_instant_s": round(new_per_instant, 6),
        "new_per_instant_max_s": round(max(instant_times), 6),
        "final_suite": last_new,
    }
    if large:
        row["log_events"] = recorder.log.total_events()
        row["old_extrapolated"] = True  # filled in by extrapolate_old_costs
    else:
        old_per_instant = old_total / old_instants
        row["old_instants_measured"] = old_instants
        row["old_per_instant_s"] = round(old_per_instant, 6)
        row["old_extrapolated"] = False
        row["speedup"] = round(old_per_instant / new_per_instant, 2)
    return row


def extrapolate_old_costs(rows: List[Dict[str, Any]]) -> None:
    """Fill in ``old_per_instant_s`` for rows the old path never ran on.

    Fits a power law ``cost ~ messages^k`` to the measured 8-process rows
    (the steepest measured configurations) and scales linearly in the process
    count beyond the reference.  The estimate is deliberately conservative —
    the old path's vector-clock replay alone is ``O(E * P)`` per instant —
    and the rows carry ``"old_extrapolated": true`` so nothing downstream can
    mistake it for a measurement.
    """
    measured = [
        row
        for row in rows
        if not row.get("old_extrapolated") and "old_per_instant_s" in row
    ]
    if not measured:
        return
    reference = max(measured, key=lambda row: (row["messages"], row["processes"]))
    same_procs = sorted(
        (row for row in measured if row["processes"] == reference["processes"]),
        key=lambda row: row["messages"],
    )
    exponent = 2.0
    if len(same_procs) >= 2 and same_procs[-1]["messages"] > same_procs[-2]["messages"]:
        a, b = same_procs[-2], same_procs[-1]
        ratio = b["old_per_instant_s"] / max(a["old_per_instant_s"], 1e-9)
        exponent = max(
            1.0, math.log(ratio) / math.log(b["messages"] / a["messages"])
        )
    for row in rows:
        if not row.get("old_extrapolated"):
            continue
        scale = (row["messages"] / reference["messages"]) ** exponent
        scale *= row["processes"] / reference["processes"]
        estimate = reference["old_per_instant_s"] * scale
        row["old_per_instant_s"] = round(estimate, 6)
        row["old_extrapolation_basis"] = (
            f"power-law fit (k={exponent:.2f}) on measured "
            f"{reference['processes']}-proc rows"
        )
        row["speedup"] = round(estimate / row["new_per_instant_s"], 2)


def measure_memory_pass(
    num_processes: int,
    num_messages: int,
    samples: int,
    *,
    seed: int = SEED,
    repeat: int = 3,
) -> int:
    """Peak traced allocation (bytes) of one feed-and-analyse run.

    Runs the exact workload of :func:`run_config` — feeding plus an analysis
    instant at every sample point — under :mod:`tracemalloc`.  Kept separate
    from the timing loops because the tracer roughly doubles the cost of
    every allocation.

    The run is repeated ``repeat`` times and the *minimum* peak reported: a
    single pass swings by tens of percent with cyclic-GC timing (transient
    tuples survive until whenever the collector happens to run), while the
    minimum tracks the structural footprint and is stable across host and
    process state.
    """
    import gc

    script = random_ccp_script(
        seed,
        num_processes=num_processes,
        num_messages=num_messages,
        checkpoint_rate=CHECKPOINT_RATE,
    )
    peaks: List[int] = []
    for _ in range(max(1, repeat)):
        gc.collect()
        tracemalloc.start()
        try:
            recorder = TraceRecorder(num_processes)
            feeder = TraceFeeder(recorder)
            consumed = 0
            for point in _sample_points(len(script), samples):
                feeder.feed(script[consumed:point])
                consumed = point
                _suite_new(recorder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    return min(peaks)


def run_memory_section(*, seed: int = SEED) -> Dict[str, Any]:
    """The medium-tier memory measurement."""
    num_processes, num_messages, samples = MEMORY_CONFIG
    return {
        "config": {
            "processes": num_processes,
            "messages": num_messages,
            "samples": samples,
        },
        "peak_bytes": measure_memory_pass(num_processes, num_messages, samples, seed=seed),
    }


def _warmup() -> None:
    """One unmeasured instant through both paths.

    First use pays one-time process costs (lazy imports inside the pattern
    and the knowledge view, allocator warmup) that would otherwise be billed to the first —
    often smallest — measured configuration.
    """
    script = random_ccp_script(0, num_processes=2, num_messages=30)
    recorder = TraceRecorder(2)
    TraceFeeder(recorder).feed(script)
    _suite_new(recorder)
    _suite_old(recorder)


def run_sweep(
    configs: List[Tuple[int, int, int]],
    *,
    seed: int = SEED,
    trace_dir: Optional[str] = None,
    large_configs: Optional[List[Tuple[int, int, int]]] = None,
    memory: bool = False,
) -> Dict[str, Any]:
    """Run every configuration and assemble the BENCH_perf.json document."""
    _warmup()
    rows = []
    for num_processes, num_messages, samples in configs:
        row = run_config(
            num_processes, num_messages, samples, seed=seed, trace_dir=trace_dir
        )
        rows.append(row)
        print(
            f"  {num_processes} procs x {num_messages} msgs: "
            f"old {row['old_per_instant_s']:.4f}s/instant, "
            f"new {row['new_per_instant_s']:.4f}s/instant "
            f"({row['speedup']:.1f}x)"
        )
    for num_processes, num_messages, samples in large_configs or []:
        row = run_config(
            num_processes, num_messages, samples, seed=seed, large=True
        )
        rows.append(row)
        print(
            f"  {num_processes} procs x {num_messages} msgs [large]: "
            f"new {row['new_per_instant_s']:.4f}s/instant "
            f"(max {row['new_per_instant_max_s']:.4f}s), "
            f"{row['log_events']} events in the log"
        )
    extrapolate_old_costs(rows)
    document: Dict[str, Any] = {
        "meta": {
            "suite": "bench_perf_scaling",
            "seed": seed,
            "checkpoint_rate": CHECKPOINT_RATE,
            "python": sys.version.split()[0],
            # Seconds do not transfer between machines: say whose they are.
            "host": f"{platform.system()} {platform.release()} {platform.machine()}, "
            f"{os.cpu_count()} cpus",
            "date": time.strftime("%Y-%m-%d"),
            "description": (
                "Per-instant cost of the full audited analysis suite: "
                "old = from-scratch CCP + brute-force BFS oracles, "
                "new = delta-maintained TraceRecorder knowledge state + "
                "blocked bitset zigzag kernel, answers memoised on the "
                "recorder's knowledge view; "
                "large rows time the retained sets and a recovery line "
                "over the whole log."
            ),
        },
        "rows": rows,
    }
    if memory:
        document["memory"] = run_memory_section(seed=seed)
        section = document["memory"]
        print(f"  memory @ medium tier: peak {section['peak_bytes'] / 1e6:.1f} MB")
    return document


def _profile_tier(name: str, configs: List[Tuple[int, int, int]], seed: int) -> None:
    """cProfile one tier (its largest configuration) and print top-25 cumulative."""
    import cProfile
    import pstats

    num_processes, num_messages, samples = configs[-1]
    profiler = cProfile.Profile()
    profiler.enable()
    run_config(
        num_processes,
        num_messages,
        samples,
        seed=seed,
        large=name == "large",
    )
    profiler.disable()
    print(f"\n--- cProfile [{name}] {num_processes}p x {num_messages}m "
          f"(top 25 cumulative) ---")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="run only the smoke-sized subset"
    )
    parser.add_argument(
        "--tier",
        choices=["small", "medium", "large", "all"],
        default=None,
        help="run one tier (or every tier including large)",
    )
    parser.add_argument(
        "--output", default=OUTPUT_PATH, help="where to write the JSON document"
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--traces", default=None,
        help="directory for replayable artifacts of the measured patterns",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also run the memory pass (medium tier)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each selected tier and print the top 25 cumulative entries",
    )
    args = parser.parse_args(argv)

    if args.quick:
        configs, large = SMOKE_SWEEP, []
        tiers = {"small": SMOKE_SWEEP}
    elif args.tier == "large":
        # The large tier still measures the medium rows: the extrapolation
        # needs fresh same-process measurements to fit against.
        configs, large = TIERS["medium"], LARGE_SWEEP
        tiers = {"medium": TIERS["medium"], "large": LARGE_SWEEP}
    elif args.tier == "all":
        configs, large = FULL_SWEEP, LARGE_SWEEP
        tiers = dict(TIERS)
    elif args.tier in ("small", "medium"):
        configs, large = TIERS[args.tier], []
        tiers = {args.tier: TIERS[args.tier]}
    else:
        configs, large = FULL_SWEEP, []
        tiers = {"small": TIERS["small"], "medium": TIERS["medium"]}

    print(f"bench_perf_scaling: {len(configs) + len(large)} configurations")
    document = run_sweep(
        configs,
        seed=args.seed,
        trace_dir=args.traces,
        large_configs=large,
        memory=args.memory,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    if args.profile:
        for name, tier_configs in tiers.items():
            _profile_tier(name, tier_configs, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
