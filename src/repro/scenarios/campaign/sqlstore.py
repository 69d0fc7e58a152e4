"""SQL result store and work-queue for distributed campaign execution.

This is the canonical result sink of the campaign fabric: a single SQLite
file (any number of workers on one machine, or several machines pointed at a
shared directory) holding four relational tables plus a lease journal:

``runs``
    One row per enqueued campaign: a stable ``run_id`` (digest of the cell
    set), the campaign name, cell count and creation time.
``cells``
    One row per grid cell, keyed by the content-addressed ``cell_id``.  The
    canonical parameter document is kept verbatim in ``params`` (JSON);
    the common grid axes (protocol, collector, workload, failures, network,
    backend, seed index) are denormalised into columns so analytical SQL
    never parses JSON.  ``status`` walks ``pending -> leased -> ok|failed``.
``metrics``
    One row per (cell, metric).  ``value`` is a REAL for SQL aggregation;
    ``value_text`` is the JSON scalar encoding, which preserves the
    int-versus-float distinction so records read back from the store are
    *exactly* the records the executor produced — that is what makes
    SQL-store aggregates byte-identical to a storeless run's.
``artifacts``
    One row per (cell, kind) pointing at a persisted artifact — today the
    per-cell v2 trace file written by traced sweeps.
``leases``
    Append-only claim journal: every successful claim inserts a row with the
    worker identity, attempt number and expiry; completion stamps the
    outcome.  Double-execution of a cell is visible here as two ``ok`` rows,
    which the concurrency tests assert never happens.

Claim/lease protocol.  ``claim()`` runs a single ``BEGIN IMMEDIATE``
transaction: select claimable cells (``pending``, or ``leased`` with an
expired lease — the crash-recovery path), mark them ``leased`` with a fresh
expiry and an incremented attempt counter, journal the lease.  SQLite's
write lock makes the transaction atomic across processes, so two racing
workers can never claim the same cell.  A worker that dies mid-lease (e.g.
SIGKILL) simply stops heartbeating: once its lease expires the cell is
claimable again, and because cells are content-addressed and self-seeded the
re-run produces a byte-identical result row.  ``complete()`` refuses to
overwrite a row whose attempt counter has moved on (a stale worker finishing
after its lease was reclaimed), so exactly one completion wins.

Connections and durability.  A store object holds **one** connection per
process: opened on first use, kept (with its prepared statements) until
:meth:`SQLResultStore.close`, re-opened on the next use after that.  Every
function that opens a store closes it in a ``finally``, and closing the last
connection on the file checkpoints the WAL into it and removes the ``-wal`` /
``-shm`` sidecars, so a store at rest is one file.  Connections are never
shared across ``fork``: ``run_campaign`` closes the store before it creates
its pool, and a store object that does find itself in a child process opens
its own handle there.  The journal is a WAL with ``synchronous = NORMAL``: a
commit is appended to the WAL and handed to the OS, and synced at
checkpoints.  A *killed process* therefore loses at most the transaction in
flight (the next opener replays the WAL); after a *power loss* the last few
commits may roll back — a resume re-runs those cells — and the file is never
corrupt.

The schema is deliberately Postgres-ready: plain TEXT/INTEGER/REAL columns,
no SQLite-specific types, ``INTEGER PRIMARY KEY`` instead of AUTOINCREMENT
(maps to IDENTITY), and all timestamps as epoch REALs.  Porting is a
connection string away; only the ``BEGIN IMMEDIATE`` spelling (Postgres:
``SELECT ... FOR UPDATE SKIP LOCKED``) differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.scenarios.campaign.aggregate import _axis_value

#: Default lease duration.  Must comfortably exceed the wall time of the
#: slowest cell: a lease that expires mid-execution makes the cell claimable
#: again and wastes (deterministic, but real) work on a duplicate run.
DEFAULT_LEASE = 900.0

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_info (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id     TEXT PRIMARY KEY,
    campaign   TEXT NOT NULL,
    cells      INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    cell_id      TEXT PRIMARY KEY,
    campaign     TEXT NOT NULL,
    cell_index   INTEGER,
    protocol     TEXT NOT NULL,
    collector    TEXT NOT NULL,
    workload     TEXT NOT NULL,
    failures     TEXT NOT NULL,
    network      TEXT NOT NULL,
    backend      TEXT NOT NULL,
    seed_index   INTEGER NOT NULL,
    params       TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'pending',
    worker       TEXT,
    attempt      INTEGER NOT NULL DEFAULT 0,
    lease_expires REAL,
    error        TEXT,
    completed_at REAL
);
CREATE INDEX IF NOT EXISTS idx_cells_status ON cells (status, cell_index);
CREATE TABLE IF NOT EXISTS metrics (
    cell_id    TEXT NOT NULL,
    name       TEXT NOT NULL,
    value      REAL NOT NULL,
    value_text TEXT NOT NULL,
    PRIMARY KEY (cell_id, name)
);
CREATE TABLE IF NOT EXISTS artifacts (
    cell_id TEXT NOT NULL,
    kind    TEXT NOT NULL,
    path    TEXT NOT NULL,
    PRIMARY KEY (cell_id, kind)
);
CREATE TABLE IF NOT EXISTS leases (
    lease_id   INTEGER PRIMARY KEY,
    cell_id    TEXT NOT NULL,
    worker     TEXT NOT NULL,
    attempt    INTEGER NOT NULL,
    claimed_at REAL NOT NULL,
    expires_at REAL NOT NULL,
    outcome    TEXT
);
CREATE INDEX IF NOT EXISTS idx_leases_cell ON leases (cell_id);
CREATE VIEW IF NOT EXISTS cell_metrics AS
    SELECT c.cell_id, c.campaign, c.cell_index, c.protocol, c.collector,
           c.workload, c.failures, c.network, c.backend, c.seed_index,
           m.name AS metric, m.value
    FROM cells c JOIN metrics m ON m.cell_id = c.cell_id
    WHERE c.status = 'ok';
"""

_CELL_COLUMNS = (
    "cell_id", "campaign", "cell_index", "protocol", "collector",
    "workload", "failures", "network", "backend", "seed_index", "params",
)
#: Registers one cell as pending; a cell already present, in any status, is
#: left alone.  Shared by :meth:`SQLResultStore.enqueue` and ``merge_from``.
_INSERT_CELL = (
    f"INSERT OR IGNORE INTO cells ({', '.join(_CELL_COLUMNS)}) "
    f"VALUES ({', '.join('?' * len(_CELL_COLUMNS))})"
)


def shard_indices(count: int, shard: Optional[Tuple[int, int]]) -> range:
    """The expansion indices below ``count`` that ``shard=(k, n)`` owns (those
    with ``index % n == k``; all of them without a shard).

    Every sharded path (both executors, :meth:`SQLResultStore.enqueue` and
    :meth:`SQLResultStore.claim`) goes through here, so a shard outside
    ``0 <= k < n`` is refused alike everywhere, as a ``ValueError`` naming it.
    """
    if shard is None:
        return range(count)
    k, n = shard
    if not 0 <= k < n:
        raise ValueError(f"shard must be (k, n) with 0 <= k < n, got {shard}")
    return range(k, count, n)


@dataclass(frozen=True)
class ClaimedCell:
    """One cell leased to a worker by :meth:`SQLResultStore.claim`."""

    cell_id: str
    cell_index: Optional[int]
    attempt: int
    lease_expires: float


def _metric_scalar(value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"metric values must be numeric, got {value!r}") from None


class SQLResultStore:
    """SQLite-backed campaign result store with an atomic work queue.

    ``load()`` / ``append()`` are what the serial and pool executors use;
    the distributed fabric adds the queue operations :meth:`enqueue`,
    :meth:`claim`, :meth:`complete`, :meth:`status_counts` and
    :meth:`merge_from`.

    Opening creates the file (and its directory) unless ``create=False`` —
    what every read-side caller passes, so that a mistyped path is a
    ``FileNotFoundError`` instead of a fresh empty store.  A file that exists
    but is not a SQLite database is a ``ValueError`` either way.

    The object owns one connection (see the module docstring); whoever
    creates a store closes it — ``with SQLResultStore(path) as store:`` or
    :meth:`close` in a ``finally``.  A closed store re-opens on its next use.
    """

    def __init__(
        self, path: str, *, timeout: float = 30.0, create: bool = True
    ) -> None:
        self._path = path
        self._timeout = timeout
        self._connection: Optional[sqlite3.Connection] = None
        self._connection_pid = 0
        if not create and not os.path.exists(path):
            raise FileNotFoundError(f"no such store {path!r}")
        try:
            self._ensure_schema()
        except BaseException as exc:
            self.close()  # a constructor that raises leaves no handle behind
            # Exactly DatabaseError is SQLite's "not a database" / "malformed
            # image"; its subclasses (locked, read-only, ...) say nothing
            # about what the file is and propagate as they are.
            if type(exc) is not sqlite3.DatabaseError:
                raise
            raise ValueError(
                f"result store {path!r} is not a SQLite database ({exc}); "
                f"stores are SQLite files written by `repro campaign --store`"
            ) from exc

    @property
    def path(self) -> str:
        """Location of the SQLite file."""
        return self._path

    # ------------------------------------------------------------------
    # Connections and schema
    # ------------------------------------------------------------------
    @contextmanager
    def connect(self) -> Iterator[sqlite3.Connection]:
        """The store's autocommit connection, opened if need be.

        Exposed publicly so the query library and ad-hoc analysis can run
        arbitrary SQL against the store's tables and views.  The connection
        outlives the block (:meth:`close` ends it); a transaction the block
        leaves open by raising is rolled back.  Fork-safe by ownership: a
        process that did not open the connection gets its own.
        """
        connection = self._connection
        if connection is None or self._connection_pid != os.getpid():
            # An inherited handle is closed first, which also drops SQLite's
            # per-process lock bookkeeping copied from the parent, so the new
            # connection takes real locks; the parent still holds its own.
            self.close()
            connection = sqlite3.connect(self._path, timeout=self._timeout)
            self._connection, self._connection_pid = connection, os.getpid()
            connection.isolation_level = None  # explicit BEGIN only
            connection.row_factory = sqlite3.Row
            connection.execute(f"PRAGMA busy_timeout = {int(self._timeout * 1000)}")
            # Per connection, unlike the journal mode: commits go to the WAL
            # and the OS, syncs happen at checkpoints.
            connection.execute("PRAGMA synchronous = NORMAL")
        try:
            yield connection
        except BaseException:
            if connection.in_transaction:
                connection.rollback()
            raise

    def close(self) -> None:
        """Close the connection, if open; the next use re-opens it.

        Closing the last connection on the file checkpoints the WAL and
        removes the ``-wal``/``-shm`` sidecars.
        """
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()

    def __enter__(self) -> "SQLResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _ensure_schema(self) -> None:
        directory = os.path.dirname(os.path.abspath(self._path))
        os.makedirs(directory, exist_ok=True)
        with self.connect() as connection:
            # WAL survives in the file: concurrent claimers read while one
            # writes, instead of serialising every SELECT behind the lock.
            connection.execute("PRAGMA journal_mode = WAL")
            # executescript issues its own implicit COMMIT, so the version
            # check runs in a separate explicit transaction below.
            connection.executescript(_SCHEMA)
            connection.execute("BEGIN IMMEDIATE")
            row = connection.execute(
                "SELECT value FROM schema_info WHERE key = 'version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO schema_info (key, value) VALUES ('version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row["value"]) != SCHEMA_VERSION:
                raise ValueError(
                    f"result store {self._path!r} has schema version "
                    f"{row['value']}, this code expects {SCHEMA_VERSION}"
                )
            connection.execute("COMMIT")
            from repro.scenarios.campaign.queries import create_views

            create_views(connection)

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def enqueue(
        self,
        cells: Sequence[Any],
        *,
        campaign: Optional[str] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> int:
        """Register grid cells as pending work; returns the rows inserted.

        ``cells`` are :class:`~repro.scenarios.campaign.spec.CampaignCell`
        objects in grid-expansion order (their position is persisted as
        ``cell_index`` — the reducer's ordering key).  Enqueueing is
        idempotent: cells already present, in any status, are left alone, so
        any number of workers can enqueue the same spec against one store.
        ``shard=(k, n)`` registers only the cells with ``index % n == k``.
        """
        rows = []
        for index in shard_indices(len(cells), shard):
            cell = cells[index]
            params = cell.params()
            rows.append(
                (
                    cell.cell_id,
                    params.get("campaign", ""),
                    index,
                    str(params.get("protocol", "")),
                    str(params.get("collector", "")),
                    str(params.get("workload", "")),
                    str(params.get("failures", "")),
                    str(_axis_value(params, "network")),
                    str(params.get("backend", "sim")),
                    int(params.get("seed_index", 0)),
                    json.dumps(params, sort_keys=True),
                )
            )
        if not rows:
            return 0
        name = campaign if campaign is not None else rows[0][1]
        run_id = hashlib.sha256(
            json.dumps([row[0] for row in rows], sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        with self.connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            # executemany sums the per-row modifications; an ignored row is 0.
            inserted = connection.executemany(_INSERT_CELL, rows).rowcount
            connection.execute(
                "INSERT OR IGNORE INTO runs (run_id, campaign, cells, created_at) "
                "VALUES (?, ?, ?, ?)",
                (run_id, name, len(rows), time.time()),
            )
            connection.execute("COMMIT")
        return inserted

    # ------------------------------------------------------------------
    # Claim / lease
    # ------------------------------------------------------------------
    def claim(
        self,
        *,
        worker: str,
        limit: int = 1,
        lease_duration: float = DEFAULT_LEASE,
        now: Optional[float] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> List[ClaimedCell]:
        """Atomically lease up to ``limit`` claimable cells to ``worker``.

        Claimable means ``pending``, or ``leased`` with an expired lease (the
        holder died); expired leases are journalled as ``outcome='expired'``
        when reclaimed.  ``shard=(k, n)`` restricts claims to cells whose
        expansion index is ``k`` modulo ``n``.  Returns the claimed cells in
        ``cell_index`` order; an empty list means nothing is claimable
        *right now* — completed sweeps and in-flight leases held by live
        workers look the same here, so callers distinguish them via
        :meth:`remaining`.

        ``limit`` must be at least 1 (SQL's ``LIMIT 0`` claims nothing for
        ever, ``LIMIT -1`` everything) and ``lease_duration`` positive (a
        lease born expired lets a second worker claim a cell mid-execution).
        """
        if limit < 1:
            raise ValueError(f"limit must be at least 1, got {limit}")
        if not lease_duration > 0:
            raise ValueError(
                f"lease_duration must be positive, got {lease_duration}"
            )
        shard_indices(0, shard)  # refuses a shard outside 0 <= k < n
        moment = time.time() if now is None else now
        claimed: List[ClaimedCell] = []
        shard_sql = ""
        args: Tuple[Any, ...] = (moment,)
        if shard is not None:
            shard_sql = "AND cell_index % ? = ?"
            args += (shard[1], shard[0])
        with self.connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            rows = connection.execute(
                f"""
                SELECT cell_id, cell_index, attempt, status FROM cells
                WHERE (status = 'pending'
                   OR (status = 'leased' AND lease_expires <= ?))
                   {shard_sql}
                ORDER BY cell_index, cell_id
                LIMIT ?
                """,
                args + (int(limit),),
            ).fetchall()
            for row in rows:
                attempt = row["attempt"] + 1
                expires = moment + lease_duration
                if row["status"] == "leased":
                    connection.execute(
                        "UPDATE leases SET outcome = 'expired' "
                        "WHERE cell_id = ? AND outcome IS NULL",
                        (row["cell_id"],),
                    )
                connection.execute(
                    "UPDATE cells SET status = 'leased', worker = ?, "
                    "attempt = ?, lease_expires = ? WHERE cell_id = ?",
                    (worker, attempt, expires, row["cell_id"]),
                )
                connection.execute(
                    "INSERT INTO leases (cell_id, worker, attempt, claimed_at, "
                    "expires_at) VALUES (?, ?, ?, ?, ?)",
                    (row["cell_id"], worker, attempt, moment, expires),
                )
                claimed.append(
                    ClaimedCell(
                        cell_id=row["cell_id"],
                        cell_index=row["cell_index"],
                        attempt=attempt,
                        lease_expires=expires,
                    )
                )
            connection.execute("COMMIT")
        return claimed

    def complete(
        self,
        record: Mapping[str, Any],
        *,
        worker: str = "local",
        attempt: Optional[int] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Persist one finished cell's result row; True if this write won.

        ``attempt`` ties the completion to the lease that authorised it: if
        the cell's attempt counter has moved on (our lease expired and
        another worker reclaimed the cell) the write is refused and the stale
        lease journalled as ``outcome='stale'`` — results are deterministic,
        so nothing is lost, but exactly one completion owns the row.
        With ``attempt=None`` (the serial and pool executors, which never
        lease) the write is unconditional.
        """
        if "cell_id" not in record:
            raise ValueError("campaign records need a cell_id")
        cell_id = record["cell_id"]
        status = record.get("status", "ok")
        moment = time.time() if now is None else now
        with self.connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            row = connection.execute(
                "SELECT attempt FROM cells WHERE cell_id = ?", (cell_id,)
            ).fetchone()
            if row is None:
                raise ValueError(
                    f"cannot complete unknown cell {cell_id!r}; enqueue it first"
                )
            if attempt is not None and row["attempt"] != attempt:
                connection.execute(
                    "UPDATE leases SET outcome = 'stale' "
                    "WHERE cell_id = ? AND attempt = ?",
                    (cell_id, attempt),
                )
                connection.execute("COMMIT")
                return False
            connection.execute(
                "UPDATE cells SET status = ?, worker = ?, error = ?, "
                "completed_at = ?, lease_expires = NULL WHERE cell_id = ?",
                (status, worker, record.get("error"), moment, cell_id),
            )
            connection.execute("DELETE FROM metrics WHERE cell_id = ?", (cell_id,))
            connection.executemany(
                "INSERT INTO metrics (cell_id, name, value, value_text) "
                "VALUES (?, ?, ?, ?)",
                [
                    (cell_id, name, _metric_scalar(value), json.dumps(value))
                    for name, value in (record.get("metrics") or {}).items()
                ],
            )
            connection.execute(
                "DELETE FROM artifacts WHERE cell_id = ? AND kind = 'trace'",
                (cell_id,),
            )
            if record.get("trace"):
                connection.execute(
                    "INSERT INTO artifacts (cell_id, kind, path) VALUES (?, ?, ?)",
                    (cell_id, "trace", record["trace"]),
                )
            if attempt is not None:
                connection.execute(
                    "UPDATE leases SET outcome = ? WHERE cell_id = ? AND attempt = ?",
                    (status, cell_id, attempt),
                )
            connection.execute("COMMIT")
        return True

    # ------------------------------------------------------------------
    # The unleased surface (serial and pool executors)
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """All completed records keyed by ``cell_id`` (resume semantics)."""
        return {
            record["cell_id"]: record
            for record in self.records(include_incomplete=False)
        }

    def append(self, record: Mapping[str, Any]) -> None:
        """Persist one finished cell of an enqueued grid, unconditionally.

        The unleased spelling of :meth:`complete` — one transaction; a later
        record for the same cell replaces the earlier one.
        """
        self.complete(record, worker="local", attempt=None)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, *, include_incomplete: bool = True) -> List[Dict[str, Any]]:
        """Store records in grid-expansion order — the reducer's input.

        Each completed cell reconstructs the exact record the executor
        produced (params from the verbatim JSON, metrics from their JSON
        scalar encodings), so aggregation over these records is
        byte-identical to aggregation over the run that produced them.
        With ``include_incomplete`` pending/leased cells are reported as
        minimal ``{"cell_id", "params", "status"}`` records (the reducer
        refuses to fold those; callers filter or fail on them).
        """
        with self.connect() as connection:
            rows = connection.execute(
                "SELECT cell_id, params, status, error FROM cells "
                "ORDER BY cell_index, cell_id"
            ).fetchall()
            metric_rows = connection.execute(
                "SELECT cell_id, name, value_text FROM metrics"
            ).fetchall()
            artifact_rows = connection.execute(
                "SELECT cell_id, path FROM artifacts WHERE kind = 'trace'"
            ).fetchall()
        metrics: Dict[str, Dict[str, Any]] = {}
        for row in metric_rows:
            metrics.setdefault(row["cell_id"], {})[row["name"]] = json.loads(
                row["value_text"]
            )
        traces = {row["cell_id"]: row["path"] for row in artifact_rows}
        records: List[Dict[str, Any]] = []
        for row in rows:
            if row["status"] not in ("ok", "failed") and not include_incomplete:
                continue
            record: Dict[str, Any] = {
                "cell_id": row["cell_id"],
                "params": json.loads(row["params"]),
            }
            if row["cell_id"] in traces:
                record["trace"] = traces[row["cell_id"]]
            record["status"] = row["status"]
            if row["status"] == "ok":
                record["metrics"] = metrics.get(row["cell_id"], {})
            elif row["status"] == "failed":
                record["error"] = row["error"]
            records.append(record)
        return records

    def status_counts(self) -> Dict[str, int]:
        """Cell counts per status (``pending``/``leased``/``ok``/``failed``)."""
        with self.connect() as connection:
            rows = connection.execute(
                "SELECT status, COUNT(*) AS n FROM cells GROUP BY status"
            ).fetchall()
        return {row["status"]: row["n"] for row in rows}

    def remaining(self, *, now: Optional[float] = None) -> Tuple[int, int]:
        """(claimable, in-flight) cell counts — the worker loop's exit test.

        Claimable counts pending cells plus expired leases; in-flight counts
        live leases held by (presumed alive) workers.
        """
        moment = time.time() if now is None else now
        with self.connect() as connection:
            claimable = connection.execute(
                "SELECT COUNT(*) AS n FROM cells WHERE status = 'pending' "
                "OR (status = 'leased' AND lease_expires <= ?)",
                (moment,),
            ).fetchone()["n"]
            inflight = connection.execute(
                "SELECT COUNT(*) AS n FROM cells WHERE status = 'leased' "
                "AND lease_expires > ?",
                (moment,),
            ).fetchone()["n"]
        return claimable, inflight

    def lease_history(self, cell_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """The claim journal (optionally for one cell), oldest first."""
        query = (
            "SELECT cell_id, worker, attempt, claimed_at, expires_at, outcome "
            "FROM leases"
        )
        args: Tuple[Any, ...] = ()
        if cell_id is not None:
            query += " WHERE cell_id = ?"
            args = (cell_id,)
        query += " ORDER BY lease_id"
        with self.connect() as connection:
            rows = connection.execute(query, args).fetchall()
        return [dict(row) for row in rows]

    def reset_failed(self) -> int:
        """Return failed cells to ``pending`` (the --retry-failed path)."""
        with self.connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            cursor = connection.execute(
                "UPDATE cells SET status = 'pending', error = NULL, "
                "completed_at = NULL, worker = NULL WHERE status = 'failed'"
            )
            connection.execute("COMMIT")
            return cursor.rowcount

    # ------------------------------------------------------------------
    # Merging (CI shard artifacts -> one store)
    # ------------------------------------------------------------------
    def merge_from(self, other_path: str) -> int:
        """Fold another store's *completed* cells into this one.

        The reducer step for CI matrix shards: each shard uploads its own
        store file, the reduce job merges them and aggregates once.  A cell
        completed in both stores keeps the earlier import (results are
        content-addressed and deterministic, so the rows agree anyway);
        pending/leased rows in ``other`` are registered as pending here.
        Returns the number of completed cells imported.
        """
        with SQLResultStore(other_path, timeout=self._timeout, create=False) as other:
            with other.connect() as connection:
                cell_rows = connection.execute(
                    f"SELECT {', '.join(_CELL_COLUMNS)}, status, worker FROM cells"
                ).fetchall()
            records = {r["cell_id"]: r for r in other.records()}
        already = self.load()
        with self.connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.executemany(
                _INSERT_CELL,
                [tuple(row[column] for column in _CELL_COLUMNS) for row in cell_rows],
            )
            connection.execute("COMMIT")
        imported = 0
        for row in cell_rows:
            if row["status"] in ("ok", "failed") and row["cell_id"] not in already:
                self.complete(
                    records[row["cell_id"]],
                    worker=row["worker"] or "merge",
                    attempt=None,
                )
                imported += 1
        return imported
