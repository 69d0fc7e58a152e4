"""The two evaluations the paper defers: storage per collector, and lost work under failures.

Every collector runs the same seeded executions; the tables are in
EXPERIMENTS.md.
"""

from experiments import control_messages, evaluation_rollback, evaluation_storage


class TestStorageEvaluation:
    """Five collectors on four workload shapes, 4 processes, seed 7."""

    def test_every_collector_is_safe_on_every_workload(self):
        rows = evaluation_storage()
        assert len(rows) == 4 * 5
        assert all(row["safe"] for row in rows)

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
