"""FIG-5: the worst-case scenario and the space bounds of Section 4.5."""

import pytest
from experiments import figure5, worst_case

from repro.scenarios.experiments import run_worst_case


class TestFigure5WorstCase:
    @pytest.mark.parametrize("num_processes", [2, 3, 4, 6])
    def test_every_process_reaches_the_n_checkpoint_bound(self, num_processes):
        result = worst_case(num_processes)
        assert result.retained_final == tuple([num_processes] * num_processes)

    @pytest.mark.parametrize("num_processes", [3, 4, 6])
    def test_bound_is_never_exceeded_beyond_the_transient(self, num_processes):
        """At most n retained at rest, n + 1 transiently while a new checkpoint
        is stored but the previous one not yet released (Section 4.5)."""
        result = worst_case(num_processes)
        assert result.max_retained_any_process <= num_processes + 1
        assert all(r <= num_processes for r in result.retained_final)

    def test_worst_case_global_occupancy_is_n_squared_at_rest(self):
        n = 4
        result = worst_case(n)
        assert result.total_retained_final == n * n

    def test_rdt_lgc_remains_safe_and_optimal_in_the_worst_case(self):
        result = run_worst_case(4, audit="full")
        assert result.all_audits_safe
        assert result.all_audits_optimal

    def test_worst_case_takes_no_forced_checkpoints_under_fdas(self):
        """The schedule is built so FDAS never forces a checkpoint, keeping the
        checkpoint indices exactly as in the figure."""
        result = worst_case(4)
        assert result.forced_checkpoints == 0

    def test_worst_case_is_a_causal_knowledge_limit_not_a_bug(self):
        """The retained n-per-process checkpoints are exactly what causal
        knowledge allows (Theorem 2 / Theorem 5); global knowledge (Theorem 1,
        i.e. a coordinated collector) could discard far more in this pattern,
        which is precisely the gap control messages buy."""
        from repro.core.obsolete import (
            retained_stable_checkpoints_theorem1,
            retained_stable_checkpoints_theorem2,
        )

        n = 4
        result = worst_case(n)
        assert result.final_ccp is not None
        allowed = retained_stable_checkpoints_theorem2(result.final_ccp)
        required = retained_stable_checkpoints_theorem1(result.final_ccp)
        assert len(allowed) == result.total_retained_final == n * n
        assert len(required) == n  # only each process's last checkpoint

    def test_global_occupancy_stays_within_n_times_n_plus_one(self):
        """Section 4.5's global bounds at n = 2, 4, 8: n² at rest, n(n + 1)
        while a new checkpoint is stored before the previous one is released."""
        for row in figure5():
            n = row["n"]
            assert row["at rest"] == n and row["global at rest"] == n * n
            assert row["global transient"] <= n * (n + 1)
