"""Tests for the SQL result store: schema, claim/lease protocol, byte-identity."""

import json
import multiprocessing
import os
import signal
import sqlite3

import pytest

import repro.api as api
from repro.scenarios.campaign import (
    CampaignSpec,
    CollectorSpec,
    SQLResultStore,
    WorkloadSpec,
    aggregate_campaign,
    run_campaign,
)
from repro.scenarios.campaign.executor import execute_cell


def tiny_spec(*, seeds=(0, 1), name="tiny-sql"):
    return CampaignSpec(
        name=name,
        num_processes=3,
        duration=20.0,
        collectors=(CollectorSpec.of("rdt-lgc"), CollectorSpec.of("none")),
        workloads=(WorkloadSpec.of("uniform-random"),),
        failure_counts=(0,),
        seeds=seeds,
    )


@pytest.fixture
def store(tmp_path):
    return SQLResultStore(str(tmp_path / "store.sqlite"))


class TestSchema:
    def test_non_sqlite_file_rejected_by_name(self, legacy_store_file):
        with open(legacy_store_file, "rb") as handle:
            before = handle.read()
        with pytest.raises(ValueError, match="not a SQLite database") as excinfo:
            SQLResultStore(legacy_store_file)
        assert legacy_store_file in str(excinfo.value)
        with open(legacy_store_file, "rb") as handle:
            assert handle.read() == before

    def test_create_false_refuses_a_missing_store(self, tmp_path):
        path = tmp_path / "no-such-dir" / "typo.sqlite"
        with pytest.raises(FileNotFoundError, match="no such store"):
            SQLResultStore(str(path), create=False)
        assert not path.parent.exists()
        with pytest.raises(FileNotFoundError, match="no such store"):
            SQLResultStore(str(tmp_path / "dest.sqlite")).merge_from(str(path))
        assert not path.parent.exists()

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        SQLResultStore(path)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE schema_info SET value = '999' WHERE key = 'version'"
            )
        with pytest.raises(ValueError, match="schema version"):
            SQLResultStore(path)

    def test_postgres_ready_schema(self, store):
        # The portability contract: no AUTOINCREMENT, no SQLite-only types.
        with store.connect() as connection:
            ddl = " ".join(
                row["sql"]
                for row in connection.execute(
                    "SELECT sql FROM sqlite_master WHERE sql IS NOT NULL"
                )
            ).upper()
        assert "AUTOINCREMENT" not in ddl
        assert "BLOB" not in ddl


class TestQueue:
    def test_enqueue_is_idempotent(self, store):
        cells = tiny_spec().cells()
        assert store.enqueue(cells) == len(cells)
        assert store.enqueue(cells) == 0
        assert store.status_counts() == {"pending": len(cells)}

    def test_enqueue_shard_registers_subset(self, store):
        cells = tiny_spec().cells()
        inserted = store.enqueue(cells, shard=(0, 2))
        assert inserted == len([i for i in range(len(cells)) if i % 2 == 0])

    def test_enqueue_counts_only_new_rows_across_shards(self, store):
        cells = tiny_spec().cells()
        first = store.enqueue(cells, shard=(0, 2))
        assert store.enqueue(cells) == len(cells) - first
        assert store.enqueue(cells, shard=(1, 2)) == 0
        assert store.status_counts() == {"pending": len(cells)}

    def test_claim_refuses_a_limit_or_lease_that_cannot_work(self, store):
        # LIMIT 0 claims nothing for ever, LIMIT -1 is SQLite for "no limit",
        # and a lease that is born expired is claimable while it executes.
        cells = tiny_spec().cells()
        store.enqueue(cells)
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit"):
                store.claim(worker="w", limit=limit)
        for lease in (0.0, -5.0):
            with pytest.raises(ValueError, match="lease_duration"):
                store.claim(worker="w", lease_duration=lease)
        assert store.status_counts() == {"pending": len(cells)}
        assert store.lease_history() == []

    def test_claim_marks_leased_and_is_exclusive(self, store):
        cells = tiny_spec().cells()
        store.enqueue(cells)
        first = store.claim(worker="w1", limit=len(cells))
        assert len(first) == len(cells)
        assert all(claim.attempt == 1 for claim in first)
        # Everything is leased with a live lease: nothing left to claim.
        assert store.claim(worker="w2", limit=10) == []
        assert store.status_counts() == {"leased": len(cells)}

    def test_claim_orders_by_expansion_index(self, store):
        cells = tiny_spec().cells()
        store.enqueue(cells)
        claimed = store.claim(worker="w", limit=len(cells))
        assert [c.cell_index for c in claimed] == list(range(len(cells)))

    def test_expired_lease_is_reclaimable_with_higher_attempt(self, store):
        cells = tiny_spec(seeds=(0,)).cells()
        store.enqueue(cells)
        claims = store.claim(
            worker="victim", limit=len(cells), lease_duration=10.0, now=100.0
        )
        assert [c.attempt for c in claims] == [1] * len(cells)
        # Before expiry: held; after: claimable by someone else.
        assert store.claim(worker="other", limit=10, now=105.0) == []
        [reclaim] = store.claim(worker="other", limit=1, now=111.0)
        assert reclaim.cell_id == claims[0].cell_id
        assert reclaim.attempt == 2
        outcomes = [
            entry["outcome"] for entry in store.lease_history(reclaim.cell_id)
        ]
        assert outcomes == ["expired", None]

    def test_stale_completion_is_refused(self, store):
        cells = tiny_spec(seeds=(0,)).cells()
        store.enqueue(cells)
        [claim] = store.claim(worker="victim", limit=1, lease_duration=10.0, now=100.0)
        [reclaim] = store.claim(worker="other", limit=1, now=200.0)
        record = execute_cell(cells[claim.cell_index])
        assert store.append(record, worker="other", attempt=reclaim.attempt)
        # The victim finishing late must not overwrite the winner's row.
        assert not store.append(record, worker="victim", attempt=claim.attempt)
        outcomes = {
            entry["attempt"]: entry["outcome"]
            for entry in store.lease_history(claim.cell_id)
        }
        assert outcomes == {1: "stale", 2: "ok"}
        assert store.status_counts()["ok"] == 1

    def test_complete_unknown_cell_rejected(self, store):
        with pytest.raises(ValueError, match="enqueue"):
            store.append({"cell_id": "nope", "status": "ok", "metrics": {}})

    def test_remaining_distinguishes_claimable_from_inflight(self, store):
        cells = tiny_spec().cells()
        store.enqueue(cells)
        store.claim(worker="w", limit=1, lease_duration=1000.0, now=100.0)
        assert store.remaining(now=100.0) == (len(cells) - 1, 1)
        assert store.remaining(now=2000.0) == (len(cells), 0)

    def test_reset_failed_returns_cells_to_pending(self, store):
        cells = tiny_spec(seeds=(0,)).cells()
        store.enqueue(cells)
        [claim] = store.claim(worker="w", limit=1)
        store.append(
            {"cell_id": claim.cell_id, "status": "failed", "error": "boom"},
            worker="w",
            attempt=claim.attempt,
        )
        assert store.status_counts()["failed"] == 1
        assert store.reset_failed() == 1
        assert "failed" not in store.status_counts()

    def test_queue_counts_and_reset_honour_the_shard(self, store):
        cells = tiny_spec().cells()
        store.enqueue(cells)
        for claim in store.claim(worker="w", limit=len(cells)):
            store.append(
                {"cell_id": claim.cell_id, "status": "failed", "error": "boom"},
                worker="w",
                attempt=claim.attempt,
            )
        assert store.reset_failed(shard=(0, 2)) == 2
        assert store.status_counts(shard=(0, 2)) == {"pending": 2}
        assert store.status_counts(shard=(1, 2)) == {"failed": 2}
        assert store.remaining(shard=(0, 2)) == (2, 0)
        assert store.remaining(shard=(1, 2)) == (0, 0)
        errors = [r["error"] for r in store.records() if r["status"] == "failed"]
        assert errors == ["boom", "boom"]  # the other shard keeps its errors

    def test_release_returns_only_the_workers_leases(self, store):
        cells = tiny_spec().cells()
        store.enqueue(cells)
        [kept] = store.claim(worker="stays", limit=1)
        handed_back = store.claim(worker="quits", limit=2)
        assert store.release("quits") == 2
        assert store.release("quits") == 0
        assert store.status_counts() == {"leased": 1, "pending": len(cells) - 1}
        outcomes = {
            entry["cell_id"]: entry["outcome"] for entry in store.lease_history()
        }
        assert outcomes == {
            kept.cell_id: None, **{claim.cell_id: "released" for claim in handed_back}
        }
        # Claimable at once, on the next attempt.
        again = store.claim(worker="next", limit=2)
        assert [(c.cell_id, c.attempt) for c in again] == [
            (c.cell_id, 2) for c in handed_back
        ]


class TestRecords:
    def test_records_round_trip_exactly(self, store):
        spec = tiny_spec(seeds=(0,))
        cells = spec.cells()
        store.enqueue(cells)
        originals = []
        for claim in store.claim(worker="w", limit=len(cells)):
            record = execute_cell(cells[claim.cell_index])
            originals.append(record)
            store.append(record, worker="w", attempt=claim.attempt)
        read_back = store.records(include_incomplete=False)
        assert [json.dumps(r, sort_keys=True) for r in read_back] == [
            json.dumps(r, sort_keys=True) for r in originals
        ]

    def test_metric_int_float_distinction_survives(self, store):
        cell = tiny_spec(seeds=(0,)).cells()[0]
        store.enqueue([cell])
        store.append(
            {
                "cell_id": cell.cell_id,
                "params": cell.params(),
                "status": "ok",
                "metrics": {"count": 3, "ratio": 3.0},
            }
        )
        [record] = store.records(include_incomplete=False)
        assert type(record["metrics"]["count"]) is int
        assert type(record["metrics"]["ratio"]) is float

    def test_aggregate_byte_identical_to_storeless_run(self, tmp_path):
        spec = tiny_spec()
        storeless_run = run_campaign(spec)
        sql_run = run_campaign(spec, store_path=str(tmp_path / "a.sqlite"))
        storeless_summary = aggregate_campaign(storeless_run.records)
        sql_summary = aggregate_campaign(sql_run.records)
        assert sql_summary.to_csv() == storeless_summary.to_csv()
        assert sql_summary.to_json() == storeless_summary.to_json()
        # And reading back from the SQL file alone reproduces the same bytes.
        reread = aggregate_campaign(
            SQLResultStore(str(tmp_path / "a.sqlite")).records(include_incomplete=False)
        )
        assert reread.to_csv() == storeless_summary.to_csv()
        assert reread.to_json() == storeless_summary.to_json()

    def test_merge_from_folds_shard_stores(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, store_path=str(tmp_path / "s0.sqlite"), shard=(0, 2))
        run_campaign(spec, store_path=str(tmp_path / "s1.sqlite"), shard=(1, 2))
        merged = SQLResultStore(str(tmp_path / "merged.sqlite"))
        imported = merged.merge_from(str(tmp_path / "s0.sqlite"))
        imported += merged.merge_from(str(tmp_path / "s1.sqlite"))
        assert imported == spec.cell_count
        serial = run_campaign(spec)
        assert (
            aggregate_campaign(merged.records(include_incomplete=False)).to_csv()
            == aggregate_campaign(serial.records).to_csv()
        )

    def test_merge_is_idempotent(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        run_campaign(spec, store_path=str(tmp_path / "s.sqlite"))
        merged = SQLResultStore(str(tmp_path / "m.sqlite"))
        assert merged.merge_from(str(tmp_path / "s.sqlite")) == spec.cell_count
        assert merged.merge_from(str(tmp_path / "s.sqlite")) == 0


@pytest.fixture
def connects(monkeypatch):
    """Every ``sqlite3.connect`` call made while the test runs, as a list of paths."""
    calls = []
    real_connect = sqlite3.connect

    def counting_connect(path, *args, **kwargs):
        calls.append(path)
        return real_connect(path, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    return calls


def _append_then_die(path: str, count: int) -> None:
    """Subprocess entry: finish ``count`` cells, then SIGKILL without closing."""
    cells = tiny_spec().cells()
    store = SQLResultStore(path)
    store.enqueue(cells)
    for cell in cells[:count]:
        store.append(execute_cell(cell))
    os.kill(os.getpid(), signal.SIGKILL)


class TestConnectionPolicy:
    def test_connections_do_not_grow_with_the_grid(self, tmp_path, connects):
        opened = []
        for seeds in (range(3), range(12)):
            spec = tiny_spec(seeds=tuple(seeds))
            path = str(tmp_path / f"grid{spec.cell_count}.sqlite")
            before = len(connects)
            run = run_campaign(spec, store_path=path)
            assert run.executed == spec.cell_count
            api.query(path)
            opened.append(len(connects) - before)
        # One for the sweep, one for the query: a function of neither grid.
        assert opened == [2, 2]

    def test_forked_child_gets_its_own_connection(self, connects, store):
        cells = tiny_spec().cells()
        store.enqueue(cells)
        store.append(execute_cell(cells[0]))
        assert len(connects) == 1  # every operation so far shared one handle
        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - the child reports through the pipe
            try:
                report = {"counts": store.status_counts(), "connects": len(connects)}
                os.write(write_end, json.dumps(report).encode("utf-8"))
            finally:
                os._exit(0)
        os.close(write_end)
        _, status = os.waitpid(child, 0)
        with os.fdopen(read_end, "rb") as pipe:
            report = json.loads(pipe.read())
        assert status == 0
        assert report == {"counts": {"ok": 1, "pending": len(cells) - 1}, "connects": 2}
        # The parent's handle is untouched by the child's open and exit.
        store.append(execute_cell(cells[1]))
        assert store.status_counts() == {"ok": 2, "pending": len(cells) - 2}
        assert len(connects) == 1

    def test_block_that_raises_mid_transaction_is_rolled_back(self, tmp_path, sidecars):
        path = tmp_path / "store.sqlite"
        cells = tiny_spec().cells()
        with SQLResultStore(str(path)) as store:
            store.enqueue(cells)
            with pytest.raises(RuntimeError, match="mid-transaction"):
                with store.connect() as connection:
                    connection.execute("BEGIN IMMEDIATE")
                    connection.execute("UPDATE cells SET status = 'ok'")
                    raise RuntimeError("mid-transaction")
            assert store.status_counts() == {"pending": len(cells)}
            # The kept connection is out of the transaction: the next one starts.
            store.append(execute_cell(cells[0]))
            assert store.status_counts() == {"ok": 1, "pending": len(cells) - 1}
            assert sidecars(path) == ["-wal", "-shm"]
        assert sidecars(path) == []

    def test_killed_writer_loses_nothing_it_committed(self, tmp_path, sidecars):
        # The durability contract for a killed *process*: every committed cell
        # is in the WAL the victim left behind, and the next opener absorbs it.
        path = tmp_path / "killed.sqlite"
        victim = multiprocessing.Process(target=_append_then_die, args=(str(path), 3))
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == -signal.SIGKILL
        assert "-wal" in sidecars(path)
        with SQLResultStore(str(path)) as store:
            assert store.status_counts() == {"ok": 3, "pending": tiny_spec().cell_count - 3}
            assert len(store.load()) == 3
        assert sidecars(path) == []
        resumed = run_campaign(tiny_spec(), store_path=str(path))
        assert (resumed.executed, resumed.resumed) == (tiny_spec().cell_count - 3, 3)
