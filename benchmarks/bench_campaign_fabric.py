"""Distributed campaign fabric under stress: shards, SIGKILL, byte-identity.

Drives the claim/lease work-queue the way CI and real multi-host sweeps do,
and *gates* on its two invariants:

1. **Exactly-once execution** — several worker processes drain one shared
   SQL store; the lease journal must show exactly one ``ok`` completion per
   cell, even though one worker is SIGKILLed mid-sweep and its leases are
   reclaimed by the survivors.
2. **Byte-identical reduction** — the store's aggregate CSV/JSON must equal
   the serial in-process reference aggregate of the same grid, byte for byte.
3. **A dead worker process is an error, not a hang** — one worker process of
   a 2-worker ``run_campaign`` SIGKILLs itself mid-cell; the run must raise
   ``CampaignWorkerError`` with no lease left behind, and a re-run must
   finish the grid with one ``ok`` lease per cell and the reference
   aggregate.

It also reports fabric throughput (cells/second against a shared store) and
what the store itself costs (``store_ms_per_cell``: wall time the surviving
workers spent inside ``claim`` + ``append``, waiting for each other's write
lock included, per cell they executed) for the perf trajectory.  Neither is
gated: both are wall clock on a shared host.

Run directly::

    python benchmarks/bench_campaign_fabric.py --smoke   # seconds, the CI gate
    python benchmarks/bench_campaign_fabric.py           # 10^4 cells, nightly
    python benchmarks/bench_campaign_fabric.py --cells 2000 --workers 8
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time
from collections import Counter
from typing import Any, List, Optional

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import repro.scenarios.campaign.executor as executor  # noqa: E402
from repro.scenarios.campaign import (  # noqa: E402
    CampaignSpec,
    SQLResultStore,
    aggregate_campaign,
    run_campaign,
    run_worker,
    spec_from_mapping,
)
from repro.scenarios.campaign.executor import CampaignWorkerError  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def fabric_spec(target_cells: int) -> CampaignSpec:
    """A grid of ~``target_cells`` seconds-cheap cells (seed axis scaled)."""
    collectors = ["rdt-lgc", "none", "manivannan-singhal"]
    failure_counts = [0, 1]
    cells_per_seed = len(collectors) * len(failure_counts)
    seeds = max(1, target_cells // cells_per_seed)
    return spec_from_mapping(
        {
            "name": "fabric-bench",
            "num_processes": 3,
            "duration": 8.0,
            "collectors": collectors,
            "workloads": ["uniform-random"],
            "failure_counts": failure_counts,
            "seeds": seeds,
        }
    )


def _worker_entry(
    target_cells: int, store_path: str, name: str, store_seconds: Any, executed: Any
) -> None:
    """One surviving worker; adds its store time and cell count to the shared totals.

    The store is timed from out here, around ``claim`` and ``append`` of
    this process's ``SQLResultStore`` class — no clock lives in ``src/``.
    """
    spent = 0.0

    def timed(method: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nonlocal spent
            started = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                spent += time.perf_counter() - started

        return wrapper

    SQLResultStore.claim = timed(SQLResultStore.claim)
    SQLResultStore.append = timed(SQLResultStore.append)
    run = run_worker(
        fabric_spec(target_cells),
        store_path,
        worker=name,
        lease_duration=120.0,
        batch_size=4,
        wait=True,
        poll_interval=0.1,
    )
    with store_seconds.get_lock():
        store_seconds.value += spent
    with executed.get_lock():
        executed.value += run.executed


def _victim_entry(target_cells: int, store_path: str) -> None:
    """Complete a few cells, then die by SIGKILL holding live leases.

    Deterministic crash injection: whatever the grid's speed, the store is
    left with completed cells (the survivors must *not* re-run them) and
    leased-but-unfinished cells (the survivors must reclaim them on expiry).
    """
    spec = fabric_spec(target_cells)
    run_worker(
        spec,
        store_path,
        worker="victim",
        max_cells=5,
        lease_duration=2.0,
        batch_size=4,
    )
    store = SQLResultStore(store_path)
    store.claim(worker="victim", limit=4, lease_duration=2.0)
    os.kill(os.getpid(), signal.SIGKILL)


def dead_worker_leg() -> List[str]:
    """SIGKILL one worker process of a 2-worker ``run_campaign``; the failures.

    The run must raise :class:`CampaignWorkerError` (not hang) and leave no
    leased cell behind; re-running it must finish the grid with exactly one
    ``ok`` lease per cell and aggregate byte-identically to the in-process
    reference.
    """
    spec = fabric_spec(24)
    victim = spec.cells()[len(spec.cells()) // 3].cell_id
    parent = os.getpid()
    real = executor.execute_cell
    killed = False

    def killer(cell: Any, **kwargs: Any) -> Any:
        # Forked workers inherit the patch.  Only a worker process dies, and
        # only the first to claim the victim: a marker file says it happened.
        if cell.cell_id == victim and os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(cell, **kwargs)

    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="fabric-dead-worker-") as directory:
        store_path = os.path.join(directory, "store.sqlite")
        marker = os.path.join(directory, "killed")
        executor.execute_cell = killer
        started = time.perf_counter()
        try:
            run_campaign(spec, store_path=store_path, workers=2)
        except CampaignWorkerError as exc:
            killed = exc.exitcode == -signal.SIGKILL
        finally:
            executor.execute_cell = real
        print(f"dead-worker leg: the run raised after {time.perf_counter() - started:.1f}s")
        if not killed:
            failures.append("a SIGKILLed worker process did not raise CampaignWorkerError")
        with SQLResultStore(store_path) as store:
            if store.status_counts().get("leased"):
                failures.append("the dead worker's lease was not released")
        rerun = run_campaign(spec, store_path=store_path, workers=2)
        with SQLResultStore(store_path) as store:
            journal = store.lease_history()
        ok = Counter(entry["cell_id"] for entry in journal if entry["outcome"] == "ok")
        if len(ok) != spec.cell_count or set(ok.values()) != {1}:
            failures.append("the re-run did not complete every cell exactly once")
        if not any(entry["outcome"] == "released" for entry in journal):
            failures.append("the lease journal shows no released lease")
        reference = aggregate_campaign(run_campaign(spec).records)
        reduced = aggregate_campaign(rerun.records)
        if reduced.to_csv() != reference.to_csv() or reduced.to_json() != reference.to_json():
            failures.append("the re-run's aggregate differs from the in-process reference")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"dead-worker leg: re-run finished {spec.cell_count} cells once each, "
            f"aggregate == in-process reference"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cells", type=int, default=10_000,
        help="approximate grid size (default: 10000 — the nightly scale)",
    )
    parser.add_argument(
        "--workers", type=int, default=max(os.cpu_count() or 2, 2),
        help="concurrent fabric workers (default: all cores, at least 2)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-sized gate: ~60 cells, 2 workers + one SIGKILL victim",
    )
    parser.add_argument(
        "--store", default=None,
        help="SQL store path (default: benchmarks/results/fabric_bench.sqlite)",
    )
    args = parser.parse_args(argv)

    target = 60 if args.smoke else args.cells
    workers = 2 if args.smoke else max(args.workers, 2)
    spec = fabric_spec(target)
    store_path = args.store or os.path.join(RESULTS_DIR, "fabric_bench.sqlite")
    os.makedirs(os.path.dirname(os.path.abspath(store_path)), exist_ok=True)
    if os.path.exists(store_path):
        os.remove(store_path)

    print(
        f"fabric bench: {spec.cell_count} cells, {workers} workers + "
        f"1 SIGKILL victim, store {store_path}"
    )

    # One doomed worker runs first: it completes a handful of cells, then is
    # SIGKILLed holding live leases.  The survivors must resume without
    # re-running its completed cells and reclaim its orphaned leases once the
    # (deliberately short) 2-second lease expires.
    victim = multiprocessing.Process(target=_victim_entry, args=(target, store_path))
    victim.start()
    victim.join(timeout=600)
    if victim.exitcode != -signal.SIGKILL:
        print(f"FAIL: victim expected to die by SIGKILL, exited {victim.exitcode}")
        return 1

    store_seconds = multiprocessing.Value("d", 0.0)
    executed = multiprocessing.Value("i", 0)
    started = time.perf_counter()
    survivors = [
        multiprocessing.Process(
            target=_worker_entry,
            args=(target, store_path, f"worker-{i}", store_seconds, executed),
        )
        for i in range(workers)
    ]
    for process in survivors:
        process.start()
    for process in survivors:
        process.join()
        if process.exitcode != 0:
            print(f"FAIL: worker exited with {process.exitcode}")
            return 1
    elapsed = time.perf_counter() - started

    with SQLResultStore(store_path) as store:
        counts = store.status_counts()
        journal = store.lease_history()
        stored_records = store.records(include_incomplete=False)
    print(f"store status: {counts}; {elapsed:.1f}s after the kill")

    failures = 0
    if counts.get("ok", 0) != spec.cell_count:
        print(f"FAIL: {counts.get('ok', 0)}/{spec.cell_count} cells completed")
        failures += 1

    ok_leases = Counter(
        entry["cell_id"]
        for entry in journal
        if entry["outcome"] == "ok"
    )
    doubled = [cell for cell, n in ok_leases.items() if n != 1]
    if doubled:
        print(f"FAIL: {len(doubled)} cell(s) completed more than once: {doubled[:5]}")
        failures += 1
    reclaimed = sum(1 for entry in journal if entry["outcome"] == "expired")
    stale = sum(1 for entry in journal if entry["outcome"] == "stale")
    print(
        f"lease journal: {len(ok_leases)} completions, {reclaimed} expired "
        f"lease(s) reclaimed from the victim, {stale} stale"
    )
    if not reclaimed:
        print("FAIL: the victim's orphaned leases were never reclaimed")
        failures += 1

    # The reducer invariant: the sharded, crash-ridden fabric run aggregates
    # byte-identically to a serial in-process reference of the same grid.
    reference = aggregate_campaign(run_campaign(spec).records)
    reduced = aggregate_campaign(stored_records)
    if reduced.to_csv() != reference.to_csv() or reduced.to_json() != reference.to_json():
        print("FAIL: store aggregate differs from the serial reference")
        failures += 1
    else:
        print("byte-identity: store aggregate == serial reference (CSV and JSON)")
    failures += len(dead_worker_leg())

    document = {
        "cells": spec.cell_count,
        "workers": workers,
        "seconds": round(elapsed, 3),
        "cells_per_second": round(spec.cell_count / elapsed, 2),
        "store_ms_per_cell": round(1000.0 * store_seconds.value / max(executed.value, 1), 3),
        "reclaimed_leases": reclaimed,
        "stale_completions": stale,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "BENCH_fabric.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(
        f"throughput: {document['cells_per_second']} cells/s, store "
        f"{document['store_ms_per_cell']} ms/cell -> {out_path}"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
