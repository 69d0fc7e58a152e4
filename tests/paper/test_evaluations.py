"""The two evaluations the paper defers: storage per collector, and lost work under failures.

Every collector runs the same seeded executions; the tables are in
EXPERIMENTS.md.
"""

from experiments import _storage_runs, control_messages, evaluation_rollback, evaluation_storage

from repro.gc.registry import collector_class


class TestStorageEvaluation:
    """Five collectors on four workload shapes, 4 processes, seed 7."""

    def test_every_collector_is_safe_on_every_workload(self):
        """Theorem 4, tested at every elimination: a collector that makes no
        time assumption never eliminates a checkpoint Theorem 1 retains.

        Manivannan–Singhal assumes a basic-checkpoint period, which the
        workloads' exponential gaps honour only with some probability: its
        unsafe eliminations are pinned."""
        rows = evaluation_storage()
        assert len(rows) == 4 * 5
        unsafe = {}
        for row in rows:
            count, eliminations = map(int, row["unsafe / eliminations"].split("/"))
            assert eliminations == row["collected"]
            if collector_class(row["collector"]).uses_time_assumptions:
                unsafe[row["workload"]] = count
            else:
                assert count == 0, row
        assert unsafe == {"client-server": 0, "pipeline": 10, "ring": 0, "uniform-random": 2}
        # An audit at the end of the run cannot see a checkpoint already gone.
        assert all(result.all_audits_safe for result, _, _ in _storage_runs().values())

    def test_wang_keeps_no_more_than_the_recovery_line_scheme(self):
        """Wang's rule collects every obsolete checkpoint, holes included;
        the all-process recovery-line rule cannot collect holes."""
        rows = evaluation_storage()
        final = {(row["workload"], row["collector"]): row["final"] for row in rows}
        for workload in {row["workload"] for row in rows}:
            assert final[workload, "wang-coordinated"] <= final[workload, "all-process-line"]

    def test_only_the_coordinated_collectors_send_control_messages(self):
        for row in control_messages():
            coordinated = row["collector"] in ("all-process-line", "wang-coordinated")
            assert row["runs with control"] == (row["runs"] if coordinated else 0)


class TestRollbackEvaluation:
    """Three crashes at seed 13, 4 processes, under three collectors."""

    def test_the_collector_changes_no_recovery_line_and_no_lost_count(self):
        """Only obsolete checkpoints are collected, so what recovery restores
        does not depend on the collector; RDT keeps each loss bounded."""
        baseline, *others = evaluation_rollback()
        assert len(baseline["recovery lines"]) == 3
        for row in (baseline, *others):
            assert row["safe"]
            assert row["recovery lines"] == baseline["recovery lines"]
            assert row["lost"] == baseline["lost"]
            assert all(lost <= 3 * 4 for lost in row["lost"])
