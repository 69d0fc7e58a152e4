"""Tests for the distributed campaign fabric: racing workers, SIGKILL, resume.

These are the acceptance properties of the claim/lease work-queue: two
executor processes racing on the same store never double-run a cell, a
worker killed mid-lease leaves a reclaimable cell whose re-run produces a
byte-identical result row, and a warm re-run of a completed sweep
short-circuits without touching the store.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

import repro.api as api
import repro.scenarios.campaign.executor as executor_module
from repro.scenarios.campaign import (
    CampaignSpec,
    CollectorSpec,
    SQLResultStore,
    WorkloadSpec,
    aggregate_campaign,
    run_campaign,
    run_worker,
    spec_from_mapping,
)
from repro.scenarios.campaign.cli import main as campaign_main
from repro.scenarios.campaign.executor import execute_cell

#: One small grid, used by every test here so serial references are cheap.
SPEC_DOCUMENT = {
    "name": "fabric",
    "num_processes": 3,
    "duration": 15.0,
    "collectors": ["rdt-lgc", "none"],
    "workloads": ["uniform-random"],
    "failure_counts": [0, 1],
    "seeds": 2,
}


def fabric_spec() -> CampaignSpec:
    return spec_from_mapping(SPEC_DOCUMENT)


def _worker_process(store_path: str, worker_name: str) -> None:
    """Subprocess entry: drain the shared queue as one fabric worker."""
    run_worker(
        fabric_spec(),
        store_path,
        worker=worker_name,
        wait=True,
        poll_interval=0.05,
    )


def _claim_then_die(store_path: str) -> None:
    """Subprocess entry: lease one cell, then die without completing it."""
    store = SQLResultStore(store_path)
    store.enqueue(fabric_spec().cells())
    store.claim(worker="victim", limit=1, lease_duration=60.0)
    os.kill(os.getpid(), signal.SIGKILL)


class TestRacingWorkers:
    def test_two_processes_never_double_run_a_cell(self, tmp_path):
        spec = fabric_spec()
        store_path = str(tmp_path / "shared.sqlite")
        workers = [
            multiprocessing.Process(
                target=_worker_process, args=(store_path, f"racer-{i}")
            )
            for i in range(2)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=300)
            assert process.exitcode == 0
        store = SQLResultStore(store_path)
        assert store.status_counts() == {"ok": spec.cell_count}
        # The lease journal is the ground truth of who executed what: a
        # double-run would surface as two 'ok' leases on one cell.
        ok_leases = Counter(
            entry["cell_id"]
            for entry in store.lease_history()
            if entry["outcome"] == "ok"
        )
        assert set(ok_leases.values()) == {1}
        assert len(ok_leases) == spec.cell_count
        # And the result set is exactly the serial reference, byte for byte.
        serial = run_campaign(spec)
        assert (
            aggregate_campaign(store.records(include_incomplete=False)).to_csv()
            == aggregate_campaign(serial.records).to_csv()
        )


class TestCrashRecovery:
    def test_sigkill_mid_lease_leaves_reclaimable_cell(self, tmp_path):
        spec = fabric_spec()
        store_path = str(tmp_path / "crashed.sqlite")
        victim = multiprocessing.Process(target=_claim_then_die, args=(store_path,))
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == -signal.SIGKILL
        store = SQLResultStore(store_path)
        counts = store.status_counts()
        assert counts["leased"] == 1
        # The lease is live, so the cell is NOT claimable yet...
        now = time.time()
        assert store.remaining(now=now)[0] == spec.cell_count - 1
        # ...but once it expires it is, with a bumped attempt counter.
        later = now + 120.0
        assert store.remaining(now=later) == (spec.cell_count, 0)
        [reclaimed] = store.claim(worker="survivor", limit=1, now=later)
        assert reclaimed.attempt == 2

        # The re-run's result row is byte-identical to a clean serial run's:
        # cell identity and seeds derive from the parameters, not the worker.
        cells = spec.cells()
        record = execute_cell(cells[reclaimed.cell_index])
        assert store.complete(record, worker="survivor", attempt=reclaimed.attempt)
        reference = execute_cell(cells[reclaimed.cell_index])
        assert json.dumps(record, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_worker_resumes_after_kill_without_rerunning_completed(self, tmp_path):
        spec = fabric_spec()
        store_path = str(tmp_path / "resume.sqlite")
        store = SQLResultStore(store_path)
        store.enqueue(spec.cells())
        # First "incarnation": completes two cells, then (simulated) dies
        # with a third mid-lease.
        cells = spec.cells()
        for claim in store.claim(worker="first", limit=2):
            store.complete(
                execute_cell(cells[claim.cell_index]),
                worker="first",
                attempt=claim.attempt,
            )
        store.claim(worker="first", limit=1, lease_duration=1.0, now=time.time() - 60.0)
        # The relaunched worker drains everything else exactly once.
        result = run_worker(spec, store_path, worker="second")
        assert result.executed == spec.cell_count - 2
        assert result.drained
        store = SQLResultStore(store_path)
        assert store.status_counts() == {"ok": spec.cell_count}
        completions = Counter(
            entry["cell_id"]
            for entry in store.lease_history()
            if entry["outcome"] == "ok"
        )
        assert set(completions.values()) == {1}


class TestShortCircuit:
    def test_completed_sweep_short_circuits(self, tmp_path, monkeypatch):
        spec = fabric_spec()
        store_path = str(tmp_path / "warm.sqlite")
        first = run_campaign(spec, store_path=store_path, workers=2)
        assert first.executed == spec.cell_count

        def _no_pool(*args, **kwargs):  # pragma: no cover - failing is the point
            raise AssertionError("short-circuit must not create a pool")

        monkeypatch.setattr(executor_module.multiprocessing, "Pool", _no_pool)
        before = os.stat(store_path).st_mtime_ns, os.path.getsize(store_path)
        warm = run_campaign(spec, store_path=store_path, workers=4)
        after = os.stat(store_path).st_mtime_ns, os.path.getsize(store_path)
        assert warm.executed == 0
        assert warm.skipped == spec.cell_count
        assert warm.resumed == spec.cell_count
        assert before == after, "a warm re-run must not write to the store"
        # The read-back records still aggregate to the original bytes.
        assert (
            aggregate_campaign(warm.records).to_csv()
            == aggregate_campaign(first.records).to_csv()
        )

    def test_short_circuit_does_not_create_trace_dir(self, tmp_path):
        spec = fabric_spec()
        store_path = str(tmp_path / "warm2.sqlite")
        run_campaign(spec, store_path=store_path)
        trace_dir = tmp_path / "traces-of-warm-run"
        warm = run_campaign(spec, store_path=store_path, trace_dir=str(trace_dir))
        assert warm.executed == 0
        assert not trace_dir.exists()

    def test_sharded_stores_reduce_to_serial_reference(self, tmp_path):
        spec = fabric_spec()
        for shard in range(2):
            result = run_worker(
                spec,
                str(tmp_path / f"shard{shard}.sqlite"),
                worker=f"shard-{shard}",
                shard=(shard, 2),
            )
            assert result.drained
        merged = SQLResultStore(str(tmp_path / "merged.sqlite"))
        merged.merge_from(str(tmp_path / "shard0.sqlite"))
        merged.merge_from(str(tmp_path / "shard1.sqlite"))
        serial = run_campaign(spec)
        assert (
            aggregate_campaign(merged.records(include_incomplete=False)).to_json()
            == aggregate_campaign(serial.records).to_json()
        )

    @pytest.mark.parametrize("shard", [(3, 2), (0, 0), (-1, 2), (2, 2)])
    def test_both_executors_and_the_queue_refuse_a_shard_outside_k_below_n(
        self, tmp_path, shard
    ):
        spec = fabric_spec()
        store_path = str(tmp_path / "shard.sqlite")
        message = re.escape(f"shard must be (k, n) with 0 <= k < n, got {shard}")
        with pytest.raises(ValueError, match=message):
            run_campaign(spec, shard=shard)
        with pytest.raises(ValueError, match=message):
            run_campaign(spec, store_path=store_path, shard=shard)
        with pytest.raises(ValueError, match=message):
            run_worker(spec, store_path, shard=shard)
        with SQLResultStore(store_path) as store:
            with pytest.raises(ValueError, match=message):
                store.enqueue(spec.cells(), shard=shard)
            with pytest.raises(ValueError, match=message):
                store.claim(worker="w", shard=shard)
            assert store.remaining() == (0, 0)  # nothing was enqueued


class TestWorkerLoop:
    def test_worker_rejects_foreign_store(self, tmp_path):
        store_path = str(tmp_path / "foreign.sqlite")
        run_campaign(fabric_spec(), store_path=store_path)
        other = CampaignSpec(
            name="other",
            num_processes=3,
            duration=10.0,
            collectors=(CollectorSpec.of("none"),),
            workloads=(WorkloadSpec.of("ring"),),
            seeds=(0,),
        )
        store = SQLResultStore(store_path)
        store.enqueue(other.cells())
        with pytest.raises(ValueError, match="one store per campaign"):
            run_worker(fabric_spec(), store_path)

    def test_max_cells_bounds_one_incarnation(self, tmp_path):
        spec = fabric_spec()
        result = run_worker(
            spec, str(tmp_path / "budget.sqlite"), worker="budgeted", max_cells=3
        )
        assert result.executed == 3
        counts = SQLResultStore(str(tmp_path / "budget.sqlite")).status_counts()
        assert counts == {"ok": 3, "pending": spec.cell_count - 3}

    def test_batch_size_below_one_is_refused_not_spun_on(self, tmp_path):
        # LIMIT 0 claims nothing while cells stay claimable: the loop used to
        # spin for ever.  The alarm turns a regression into a failure.
        def _spinning(signum, frame):  # pragma: no cover - failing is the point
            raise AssertionError("run_worker is spinning on an empty claim")

        previous = signal.signal(signal.SIGALRM, _spinning)
        signal.alarm(5)
        try:
            for batch_size in (0, -1):
                with pytest.raises(ValueError, match="batch_size"):
                    run_worker(
                        fabric_spec(), str(tmp_path / "spin.sqlite"), batch_size=batch_size
                    )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_lease_that_is_born_expired_is_a_usage_error(self, tmp_path, capsys, sidecars):
        store_path = str(tmp_path / "lease0.sqlite")
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(
                ["--seeds", "1", "--worker", "--store", store_path, "--lease", "0", "--quiet"]
            )
        assert excinfo.value.code == 2
        assert "lease_duration must be positive" in capsys.readouterr().err
        assert not sidecars(store_path)

    def test_reader_interleaves_with_a_worker_in_one_process(self, tmp_path, sidecars):
        # Two store objects on one file in one process, each keeping its
        # connection: the reader polls between the worker's transactions.
        spec = fabric_spec()
        store_path = str(tmp_path / "shared.sqlite")
        seen = []
        with SQLResultStore(store_path, timeout=2.0) as reader:

            def poll(done: int, total: int) -> None:
                counts = reader.status_counts()
                claimable, inflight = reader.remaining()
                seen.append((done, counts.get("ok", 0), claimable + inflight))

            result = run_worker(spec, store_path, batch_size=2, progress=poll)
            assert reader.status_counts() == {"ok": spec.cell_count}
        assert result.executed == spec.cell_count
        # Every poll saw the worker's latest commit, not a stale snapshot.
        assert [ok for _, ok, _ in seen] == list(range(1, spec.cell_count + 1))
        assert all(done == ok for done, ok, _ in seen)
        assert seen[-1][2] == 0
        assert not sidecars(store_path)


class TestNoSidecarOutlivesAnEntryPoint:
    """A store at rest is one file: every entry point closes what it opened."""

    def test_after_a_sweep_a_worker_and_the_queries(self, tmp_path, sidecars):
        spec = fabric_spec()
        store_path = str(tmp_path / "rest.sqlite")
        run_campaign(spec, store_path=store_path, shard=(0, 2))
        assert not sidecars(store_path)
        run_campaign(spec, store_path=store_path, workers=2, shard=(1, 2))
        assert not sidecars(store_path)
        other = str(tmp_path / "worker.sqlite")
        assert run_worker(spec, other).drained
        assert not sidecars(other)
        api.query(store_path)
        api.query(store_path, "collector-table")
        assert not sidecars(store_path)
        status = subprocess.run(
            [sys.executable, "-m", "repro", "query", "status", "--store", store_path, "--json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        assert status.returncode == 0, status.stderr
        assert json.loads(status.stdout)["by_status"] == {"ok": spec.cell_count}
        assert not sidecars(store_path)
        merged = str(tmp_path / "merged.sqlite")
        with SQLResultStore(merged) as destination:
            assert destination.merge_from(store_path) == spec.cell_count
            assert not sidecars(store_path)  # the source is closed, not us
            assert sidecars(merged)
        assert not sidecars(merged)

    def test_when_the_run_raises(self, tmp_path, sidecars):
        spec = fabric_spec()

        def interrupted(done: int, total: int) -> None:
            if done in (3, 5):
                raise KeyboardInterrupt

        store_path = str(tmp_path / "interrupted.sqlite")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store_path=store_path, progress=interrupted)
        assert not sidecars(store_path)
        with pytest.raises(KeyboardInterrupt):
            run_worker(spec, store_path, progress=interrupted)
        assert not sidecars(store_path)
        with pytest.raises(api.SpecValidationError):
            api.query(store_path, "collector-table", no_such_parameter=1)
        with pytest.raises(ValueError, match="incomplete"):
            api.query(store_path)
        assert not sidecars(store_path)
        # Nothing the interrupted runs committed was lost or repeated.
        resumed = run_campaign(spec, store_path=store_path)
        assert (resumed.executed, resumed.resumed) == (spec.cell_count - 5, 5)
        assert not sidecars(store_path)
