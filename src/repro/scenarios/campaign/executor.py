"""Campaign execution: serial or on a ``multiprocessing`` pool.

Every cell is fully self-describing and self-seeded (see
:mod:`repro.scenarios.campaign.spec`), so execution strategy is pure
mechanics: the same spec produces bit-identical per-cell metrics whether it
runs on one worker or sixteen, and a sweep interrupted at any point resumes
from its result store without re-executing completed cells.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.scenarios.campaign.spec import CampaignCell, CampaignSpec
from repro.scenarios.campaign.sqlstore import DEFAULT_LEASE, SQLResultStore, shard_indices
from repro.simulation.runner import METRIC_NAMES, SimulationResult, run_simulation

#: The scalar metrics persisted per cell, in extraction order — the names of
#: :meth:`repro.simulation.runner.SimulationResult.metrics_dict` (shared
#: with trace footers); everything downstream (store, aggregation, tables)
#: works from these names.
CELL_METRICS: Tuple[str, ...] = METRIC_NAMES


def cell_metrics(result: SimulationResult) -> Dict[str, float]:
    """Extract the persisted scalar metrics from one run."""
    return result.metrics_dict()


def trace_filename(cell_id: str) -> str:
    """The per-cell trace artifact name used by traced sweeps."""
    return f"{cell_id}.trace.jsonl"


def execute_cell(
    cell: CampaignCell,
    trace_dir: Optional[str] = None,
    cell_index: Optional[int] = None,
    worker: Optional[str] = None,
    attempt: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one cell and return its store record (module-level: pool-picklable).

    A cell whose simulation raises is a *result*, not a sweep abort: the
    paper's own grid contains such points (the time-based collector is unsafe
    under crash injection — it can discard a checkpoint the recovery line
    still needs, and recovery then fails).  Failed cells are recorded with
    ``status: "failed"`` and the error, persist like any other cell (the
    simulation is deterministic, so re-running them cannot succeed — see
    ``run_campaign(retry_failed=True)`` for transient causes), and are
    reported separately by the aggregation layer.

    With ``trace_dir`` the cell's run streams a replayable
    :mod:`repro.traceio` artifact to ``<trace_dir>/<cell_id>.trace.jsonl``;
    the trace header carries the cell identity, canonical parameters and
    grid-expansion index — plus, for cells executed under a lease by a
    fabric worker, the worker identity and attempt number — so the sweep can
    later be re-aggregated (or re-audited event by event) from the artifacts
    alone.  Trace persistence never changes the simulation itself: cell
    identity and seeds are derived from the cell parameters only, and the
    shard/lease provenance lives outside the identity fields.
    """
    config = cell.config()
    record: Dict[str, Any] = {"cell_id": cell.cell_id, "params": cell.params()}
    if trace_dir is not None:
        from repro.traceio.format import RunProvenance

        provenance = RunProvenance.campaign_cell(
            campaign=cell.campaign,
            cell_id=cell.cell_id,
            params=cell.params(),
            cell_index=cell_index,
            worker=worker,
            attempt=attempt,
        )
        config = dataclasses.replace(
            config,
            trace_path=os.path.join(trace_dir, trace_filename(cell.cell_id)),
            trace_meta=provenance.to_meta(),
        )
        record["trace"] = trace_filename(cell.cell_id)
    try:
        result = run_simulation(config)
    except Exception as exc:  # noqa: BLE001 - the record carries the error
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["status"] = "ok"
    record["metrics"] = cell_metrics(result)
    return record


def _execute_cell_args(args: Tuple[CampaignCell, Optional[str], int]) -> Dict[str, Any]:
    """Pool adapter: one-argument wrapper around :func:`execute_cell`.

    Untraced sweeps call ``execute_cell(cell)`` exactly as before — the
    single-argument seam tests and custom drivers hook into.
    """
    cell, trace_dir, cell_index = args
    if trace_dir is None:
        return execute_cell(cell)
    return execute_cell(cell, trace_dir=trace_dir, cell_index=cell_index)


@dataclass
class CampaignRun:
    """The outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    records: List[Dict[str, Any]]
    executed: int
    resumed: int

    @property
    def cell_count(self) -> int:
        """Total cells of the campaign (executed + resumed)."""
        return len(self.records)

    @property
    def skipped(self) -> int:
        """Cells *not* executed because the store already held their result.

        The complement of ``executed``; a fully warm store short-circuits
        the whole run (``skipped == cell_count``) without creating a pool or
        touching the store.
        """
        return self.resumed

    @property
    def failed_records(self) -> List[Dict[str, Any]]:
        """The cells whose simulation raised (recorded, never re-run)."""
        return [r for r in self.records if r.get("status") == "failed"]


def run_campaign(
    spec: CampaignSpec,
    *,
    store_path: Optional[str] = None,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    retry_failed: bool = False,
    trace_dir: Optional[str] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> CampaignRun:
    """Execute every cell of ``spec`` and return the full result set.

    ``store_path`` — when given, completed cells stream to the
    :class:`~repro.scenarios.campaign.sqlstore.SQLResultStore` at that path
    and cells already in the store are *not* re-executed (resume semantics);
    without one the run is in-memory.
    ``workers`` — number of pool processes; ``<= 1`` runs serially
    in-process.  ``progress(done, total)`` is invoked after every completed
    cell.  ``retry_failed`` — re-execute cells the store recorded as failed:
    the simulation is deterministic, so by default a failure is final, but a
    transient cause (out-of-memory worker, a since-fixed bug) warrants a
    retry pass.  ``trace_dir`` — when given, every *executed* cell
    additionally persists a replayable :mod:`repro.traceio` artifact there
    (cells resumed from the store keep whatever trace their original
    execution left).  ``shard=(k, n)`` restricts the run to the cells whose
    expansion index is ``k`` modulo ``n`` — the CI-matrix spelling of
    distribution; the claim/lease spelling is :func:`run_worker`.

    A run whose cells are all already complete short-circuits: no worker
    pool is created, no trace directory materialises and the store sees no
    writes — the records are simply read back, and the summary reports them
    as ``skipped``.

    The store is opened once, keeps one connection for the run (closed
    before a pool forks, re-opened by the first result) and is closed when
    this returns or raises, which leaves no ``-wal``/``-shm`` file behind.

    The returned records are in grid-expansion order regardless of the order
    cells actually completed in, so downstream aggregation is deterministic.
    """
    expanded = spec.cells()
    cells = [(index, expanded[index]) for index in shard_indices(len(expanded), shard)]
    store = SQLResultStore(store_path) if store_path else None
    try:
        completed: Dict[str, Dict[str, Any]] = store.load() if store else {}
        if retry_failed:
            completed = {
                cell_id: record
                for cell_id, record in completed.items()
                if record.get("status", "ok") == "ok"
            }
            if store is not None:
                store.reset_failed()
        pending = [
            (cell, trace_dir, index)
            for index, cell in cells
            if cell.cell_id not in completed
        ]
        done = len(cells) - len(pending)
        if not pending:
            # Short-circuit: everything is already in the store.  Deliberately
            # *before* pool creation and trace-directory setup so a warm re-run
            # has no side effects whatsoever.
            if progress and done:
                progress(done, len(cells))
            return CampaignRun(
                spec=spec,
                records=[completed[cell.cell_id] for _, cell in cells],
                executed=0,
                resumed=len(cells),
            )
        if store is not None:
            # Register the grid (with expansion indices) before executing, so
            # records read back from the store keep grid order — the byte-identity
            # invariant.  After the short-circuit on purpose: a warm re-run must
            # not touch the store at all.
            store.enqueue(expanded, shard=shard)
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        if progress and done:
            progress(done, len(cells))

        def _finish(record: Dict[str, Any]) -> None:
            nonlocal done
            completed[record["cell_id"]] = record
            if store is not None:
                store.append(record)
            done += 1
            if progress:
                progress(done, len(cells))

        if workers <= 1 or len(pending) <= 1:
            for args in pending:
                _finish(_execute_cell_args(args))
        else:
            if store is not None:
                # Fork with no open handle to inherit: a SQLite connection
                # must not cross a fork.  The first ``append`` re-opens it.
                store.close()
            with multiprocessing.Pool(processes=min(workers, len(pending))) as pool:
                for record in pool.imap_unordered(_execute_cell_args, pending):
                    _finish(record)
        return CampaignRun(
            spec=spec,
            records=[completed[cell.cell_id] for _, cell in cells],
            executed=len(pending),
            resumed=len(cells) - len(pending),
        )
    finally:
        if store is not None:
            store.close()


# ----------------------------------------------------------------------
# Claim/lease workers (the distributed fabric)
# ----------------------------------------------------------------------
def default_worker_id() -> str:
    """The default worker identity: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerRun:
    """The outcome of one :func:`run_worker` claim loop."""

    worker: str
    executed: int
    failed: int
    stale: int
    remaining: int

    @property
    def drained(self) -> bool:
        """True if the queue had nothing claimable or in flight on exit."""
        return self.remaining == 0


def run_worker(
    spec: CampaignSpec,
    store_path: str,
    *,
    worker: Optional[str] = None,
    lease_duration: float = DEFAULT_LEASE,
    batch_size: int = 1,
    trace_dir: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    shard: Optional[Tuple[int, int]] = None,
    wait: bool = False,
    poll_interval: float = 0.5,
    max_cells: Optional[int] = None,
) -> WorkerRun:
    """Claim-and-execute cells of ``spec`` until the queue drains.

    The distributed spelling of :func:`run_campaign`: any number of worker
    processes — on one machine or several pointed at a shared directory —
    run this loop against the same SQL store.  Each iteration atomically
    leases up to ``batch_size`` claimable cells (pending, or expired leases
    left behind by killed workers), executes them, and pushes the result
    rows (plus trace artifacts when ``trace_dir`` is given, their headers
    carrying the worker/attempt lease provenance).  Because cells are
    content-addressed and self-seeded, *which* worker runs a cell never
    changes its result row.

    Exit condition: nothing claimable.  With ``wait=False`` (default) the
    worker then returns even if other workers still hold live leases — the
    reducer checks completeness.  With ``wait=True`` it polls every
    ``poll_interval`` seconds until in-flight leases resolve, so the last
    surviving worker also finishes cells reclaimed from killed peers.

    ``lease_duration`` must comfortably exceed the slowest cell's wall time;
    an in-flight lease that expires lets another worker re-run the cell
    (correct but wasteful), and the late completion is refused as stale.
    ``batch_size`` must be at least 1, ``lease_duration`` positive and a
    ``shard=(k, n)`` within ``0 <= k < n``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    cells = spec.cells()
    total = len(shard_indices(len(cells), shard))
    with SQLResultStore(store_path) as store:
        identity = worker if worker is not None else default_worker_id()
        store.enqueue(cells, shard=shard)
        by_id = {cell.cell_id: (index, cell) for index, cell in enumerate(cells)}
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        executed = failed = stale = 0
        while True:
            claims = store.claim(
                worker=identity,
                limit=batch_size,
                lease_duration=lease_duration,
                shard=shard,
            )
            if not claims:
                claimable, inflight = store.remaining()
                if claimable:
                    continue  # raced another worker; try again
                if inflight and wait:
                    time.sleep(poll_interval)
                    continue
                return WorkerRun(
                    worker=identity,
                    executed=executed,
                    failed=failed,
                    stale=stale,
                    remaining=inflight,
                )
            for claim in claims:
                if claim.cell_id not in by_id:
                    raise ValueError(
                        f"store {store_path!r} holds cell {claim.cell_id} that is "
                        f"not in campaign {spec.name!r} — one store per campaign"
                    )
                index, cell = by_id[claim.cell_id]
                record = execute_cell(
                    cell,
                    trace_dir=trace_dir,
                    cell_index=index,
                    worker=identity,
                    attempt=claim.attempt,
                )
                if store.complete(record, worker=identity, attempt=claim.attempt):
                    executed += 1
                    if record.get("status") == "failed":
                        failed += 1
                else:
                    stale += 1
                if progress:
                    counts = store.status_counts()
                    progress(counts.get("ok", 0) + counts.get("failed", 0), total)
                if max_cells is not None and executed >= max_cells:
                    _, inflight = store.remaining()
                    return WorkerRun(
                        worker=identity,
                        executed=executed,
                        failed=failed,
                        stale=stale,
                        remaining=inflight,
                    )
