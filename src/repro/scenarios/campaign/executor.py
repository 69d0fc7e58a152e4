"""Campaign execution: one claim loop over the SQL result store.

Every cell is fully self-describing and self-seeded (see
:mod:`repro.scenarios.campaign.spec`), so execution strategy is pure
mechanics: the same spec produces bit-identical per-cell metrics whether it
runs on one worker or sixteen, and a sweep interrupted at any point resumes
from its result store without re-executing completed cells.

There is one way to execute cells: enqueue them in a
:class:`~repro.scenarios.campaign.sqlstore.SQLResultStore`, then claim,
execute and complete them under leases.  :func:`run_worker` is that loop on
its own; :func:`run_campaign` runs it in-process or in forked worker
processes and reads the records back in grid order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import multiprocessing
import multiprocessing.connection
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenarios.campaign.spec import CampaignCell, CampaignSpec
from repro.scenarios.campaign.sqlstore import DEFAULT_LEASE, SQLResultStore, shard_indices
from repro.simulation.runner import run_simulation


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
    """Run one cell and return its store record.

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
    grid-expansion index — plus, for a cell executed under a lease, the
    worker identity and attempt number — so the sweep can
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
    record["metrics"] = result.metrics_dict()
    return record


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
        the whole run (``skipped == cell_count``) without starting a worker
        process or writing to the store.
        """
        return self.resumed

    @property
    def failed_records(self) -> List[Dict[str, Any]]:
        """The cells whose simulation raised (recorded, never re-run)."""
        return [r for r in self.records if r.get("status") == "failed"]


class CampaignWorkerError(RuntimeError):
    """A worker process of :func:`run_campaign` died without raising.

    A killing signal (SIGKILL, the OOM killer) or an ``os._exit``; a worker
    that raises hands its exception to the parent, which re-raises it.
    Raised after the other workers finished, with the dead one's leases
    already released; ``exitcode`` is negative for a killing signal.
    """

    def __init__(self, worker: str, exitcode: int) -> None:
        super().__init__(
            f"campaign worker {worker} died with exit code {exitcode}; its cells "
            f"were released, re-run the campaign to finish them"
        )
        self.worker, self.exitcode = worker, exitcode


#: Cells the in-process claim loop leases per claim transaction.  On the
#: smoke campaign a claim per cell costs 29.6 SQL statements per cell
#: all-in and a batch of 8 costs 26.9 (the store-cost gate allows 29.0);
#: worker processes claim one cell at a time, so cells spread evenly.
CLAIM_BATCH = 8


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

    The cells are enqueued in the
    :class:`~repro.scenarios.campaign.sqlstore.SQLResultStore` at
    ``store_path`` (a temporary one, removed on return, when there is none)
    and drained by :func:`run_worker`'s claim loop: in-process for
    ``workers <= 1``, otherwise in ``min(workers, pending)`` forked worker
    processes, after which the in-process loop waits out any cell still
    leased elsewhere.  Cells already in the store are *not* re-executed
    (resume semantics).  ``progress(done, total)`` is called in this process
    as the completed count grows.  ``retry_failed`` re-executes cells the
    store recorded as failed (the simulation is deterministic, so a failure
    is final unless its cause was transient).  ``trace_dir`` — every
    *executed* cell also persists a replayable :mod:`repro.traceio` artifact
    there.  ``shard=(k, n)`` restricts the run to the cells whose expansion
    index is ``k`` modulo ``n``.

    A run whose cells are all already complete short-circuits: no worker
    process, no trace directory and no store write — the records are read
    back and reported as ``skipped``.  An interrupted run releases its
    leases, so a re-run resumes at once; a dead worker process is a
    :class:`CampaignWorkerError`.  Only a SIGKILL of this process leaves
    leases to expire (``DEFAULT_LEASE``).

    The records are in grid-expansion order whatever order cells completed
    in, so downstream aggregation is deterministic.
    """
    expanded = spec.cells()
    indices = shard_indices(len(expanded), shard)
    with contextlib.ExitStack() as stack:
        if store_path is None:
            directory = stack.enter_context(tempfile.TemporaryDirectory(prefix="campaign-"))
            store_path = os.path.join(directory, "campaign.sqlite")
        store = stack.enter_context(SQLResultStore(store_path))
        if retry_failed:
            store.reset_failed(shard=shard)
        completed = store.load()
        pending = sum(1 for index in indices if expanded[index].cell_id not in completed)
        done = len(indices) - pending
        if progress and done:
            progress(done, len(indices))
        if pending:
            # Only now: a warm re-run must not write to the store, start a
            # process or create the trace directory.
            store.enqueue(expanded, shard=shard)
            if trace_dir is not None:
                os.makedirs(trace_dir, exist_ok=True)
            if min(workers, pending) > 1:
                work = functools.partial(
                    run_worker, spec, store_path, trace_dir=trace_dir, shard=shard
                )
                finished = _run_worker_processes(
                    store, work, min(workers, pending), shard, progress, done, len(indices)
                )
            else:
                finished = done
            # Counted here: querying the store's count would cost a statement per cell.
            reported = itertools.count(finished + 1)
            _claim_loop(
                store, cells=expanded, worker=default_worker_id(), batch_size=CLAIM_BATCH,
                trace_dir=trace_dir, shard=shard, wait=True,
                on_cell=None if progress is None
                else lambda: progress(next(reported), len(indices)),
            )
            completed = store.load()
        return CampaignRun(
            spec=spec,
            records=[completed[expanded[index].cell_id] for index in indices],
            executed=pending,
            resumed=done,
        )


def _run_worker_processes(
    store: SQLResultStore,
    work: Callable[..., "WorkerRun"],
    processes: int,
    shard: Optional[Tuple[int, int]],
    progress: Optional[Callable[[int, int], None]],
    done: int,
    total: int,
) -> int:
    """Run ``work(worker=identity)`` in ``processes`` forked processes, wait
    for them and return the shard's completed count.

    The parent forks with its connection closed, then waits on the pipes its
    children report on, passing the completed count to ``progress`` in
    between.  A child that stops abnormally has its leases released at once;
    once the others finished, the exception it raised is re-raised here, or
    :class:`CampaignWorkerError` if it died without one.  An interrupted
    parent terminates the children and releases their leases.
    """
    store.close()  # a SQLite connection must not cross a fork
    running: Dict[Any, Tuple[str, Any]] = {}
    errors: List[BaseException] = []
    try:
        for number in range(processes):
            identity = f"{default_worker_id()}/{number}"
            receiver, child = _start_worker(functools.partial(work, worker=identity))
            running[receiver] = (identity, child)
        while running:
            for receiver in multiprocessing.connection.wait(list(running), 0.2):
                identity, child = running.pop(receiver)
                raised = _received(receiver)
                child.join()
                if child.exitcode != 0:
                    store.release(identity)
                    errors.append(raised or CampaignWorkerError(identity, child.exitcode))
            if progress and (finished := _finished(store, shard)) > done:
                done = finished
                progress(done, total)
    except BaseException:
        for identity, child in running.values():
            child.terminate()
            child.join()
            store.release(identity)
        raise
    if errors:
        raise errors[0]
    return done


def _start_worker(target: Callable[[], None]) -> Tuple[Any, Any]:
    """Fork one worker process running ``target``; returns the read end of
    its report pipe and the process.

    Forked, not spawned: the child inherits the spec and modules as they are
    (a patched ``execute_cell`` included) and nothing is serialised on the way
    in; the campaign process runs no threads that a fork could break.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=_worker_main, args=(target, sender)
    )
    child.start()
    sender.close()  # the pipe reads EOF once the child is gone
    return receiver, child


def _worker_main(target: Callable[[], None], sender: Any) -> None:
    """A worker process's body: run ``target``; an exception escaping it is
    sent to the parent, which raises it, and the process exits 1 without
    printing a traceback of its own."""
    try:
        target()
    except BaseException as exc:
        with contextlib.suppress(Exception):  # unserialisable: the exit code says it
            sender.send(exc)
        raise SystemExit(1) from None


def _received(receiver: Any) -> Optional[BaseException]:
    """The exception a worker process sent, or None: it exited cleanly, died
    by a signal, or sent one that does not deserialise."""
    with receiver:
        try:
            return receiver.recv()
        except Exception:  # noqa: BLE001 - EOF, the pipe's end-of-child
            return None


# ----------------------------------------------------------------------
# The claim loop (every executed cell goes through it)
# ----------------------------------------------------------------------
def _finished(store: SQLResultStore, shard: Optional[Tuple[int, int]]) -> int:
    """Completed (``ok`` or ``failed``) cells of ``shard`` in the store."""
    counts = store.status_counts(shard=shard)
    return counts.get("ok", 0) + counts.get("failed", 0)


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


def _claim_loop(
    store: SQLResultStore,
    *,
    cells: Sequence[CampaignCell],
    worker: str,
    batch_size: int,
    trace_dir: Optional[str],
    shard: Optional[Tuple[int, int]],
    wait: bool,
    lease_duration: float = DEFAULT_LEASE,
    poll_interval: float = 0.5,
    max_cells: Optional[int] = None,
    on_cell: Optional[Callable[[], None]] = None,
) -> WorkerRun:
    """Claim, execute and append cells of ``shard`` until none is left.

    The one loop behind :func:`run_campaign` and :func:`run_worker`.  It
    returns when the shard has nothing claimable and — with ``wait`` —
    nothing in flight, or after ``max_cells`` executions (it never claims
    past that budget, so a return holds no lease).  ``on_cell()`` follows
    each of its appends.  Anything escaping it, Ctrl-C included, first
    releases this worker's leases.
    """
    by_id = {cell.cell_id: (index, cell) for index, cell in enumerate(cells)}
    executed = failed = stale = 0
    try:
        while True:
            if max_cells is not None and executed >= max_cells:
                inflight = store.remaining(shard=shard)[1]
                break
            budget = batch_size if max_cells is None else min(batch_size, max_cells - executed)
            claims = store.claim(
                worker=worker, limit=budget, lease_duration=lease_duration, shard=shard
            )
            if not claims:
                claimable, inflight = store.remaining(shard=shard)
                if claimable:
                    continue  # raced another worker; try again
                if inflight and wait:
                    time.sleep(poll_interval)
                    continue
                break
            for claim in claims:
                if claim.cell_id not in by_id:
                    raise ValueError(
                        f"store {store.path!r} holds cell {claim.cell_id} that is "
                        f"not in campaign {cells[0].campaign!r} — one store per campaign"
                    )
                index, cell = by_id[claim.cell_id]
                record = execute_cell(
                    cell, trace_dir=trace_dir, cell_index=index, worker=worker,
                    attempt=claim.attempt,
                )
                if not store.append(record, worker=worker, attempt=claim.attempt):
                    stale += 1
                    continue
                executed += 1
                if record["status"] == "failed":
                    failed += 1
                if on_cell:
                    on_cell()
    except BaseException:
        store.release(worker)  # an interrupted loop strands no cell until expiry
        raise
    return WorkerRun(worker, executed, failed, stale, remaining=inflight)


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
    """Enqueue ``spec`` in the store at ``store_path`` and run the claim loop
    on it until the queue drains.

    Any number of these — on one machine or several pointed at a shared
    directory — drain one store; :func:`run_campaign`'s worker processes
    are this function.  Each claim leases up to ``batch_size`` cells
    (pending, or expired leases of killed workers); traced cells' headers
    carry the worker/attempt provenance, and which worker runs a cell never
    changes its result row.  ``progress(done, total)`` counts the completed
    cells of the shard, whoever completed them.  With ``wait=False`` the
    worker returns once its shard has nothing claimable; with ``wait=True``
    it polls every ``poll_interval`` seconds until in-flight leases resolve
    too.  ``lease_duration`` must comfortably exceed the slowest cell (an
    expired lease lets another worker re-run the cell, and the late
    completion is refused as stale); ``batch_size`` must be at least 1 and
    a ``shard=(k, n)`` within ``0 <= k < n``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    cells = spec.cells()
    total = len(shard_indices(len(cells), shard))  # refuses a bad shard first
    with SQLResultStore(store_path) as store:
        store.enqueue(cells, shard=shard)
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        return _claim_loop(
            store, cells=cells, worker=worker if worker is not None else default_worker_id(),
            batch_size=batch_size, trace_dir=trace_dir, shard=shard, wait=wait,
            lease_duration=lease_duration, poll_interval=poll_interval, max_cells=max_cells,
            on_cell=None if progress is None else lambda: progress(_finished(store, shard), total),
        )
