"""Tests for the experiment runner and its result object."""

import pytest

from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import (
    SimulationConfig,
    SimulationRunner,
    result_to_record,
    run_simulation,
)
from repro.simulation.workloads import UniformRandomWorkload


def _config(**overrides):
    defaults = dict(
        num_processes=3,
        duration=60.0,
        workload=UniformRandomWorkload(mean_message_gap=3.0, mean_checkpoint_gap=8.0),
        protocol="fdas",
        collector="rdt-lgc",
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfigValidation:
    def test_invalid_process_count(self):
        with pytest.raises(ValueError):
            _config(num_processes=0)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            _config(duration=0)

    def test_invalid_audit_mode(self):
        with pytest.raises(ValueError):
            _config(audit="sometimes")


class TestRunnerBehaviour:
    def test_runs_are_deterministic_for_a_seed(self):
        first = run_simulation(_config())
        second = run_simulation(_config())
        assert first.summary() == second.summary()
        assert first.retained_final == second.retained_final

    def test_different_seeds_differ(self):
        first = run_simulation(_config(seed=1))
        second = run_simulation(_config(seed=2))
        assert first.summary() != second.summary()

    def test_counters_are_consistent(self):
        result = run_simulation(_config())
        assert result.total_checkpoints == result.basic_checkpoints + result.forced_checkpoints
        assert result_to_record(result)["total_stored"] == result.total_checkpoints
        assert result.messages_delivered <= result.messages_sent
        assert result.total_retained_final == sum(result.retained_final)
        assert 0.0 <= result.collection_ratio <= 1.0

    def test_samples_are_collected(self):
        # Every max(duration / 50, 1) = 1.2 time units, plus the final sample.
        result = run_simulation(_config())
        assert len(result.samples) >= 50
        assert result.samples[0].time == pytest.approx(1.2)
        assert result.peak_total_retained >= result.samples[0].total

    def test_final_ccp_only_kept_on_request(self):
        assert run_simulation(_config()).final_ccp is None
        assert run_simulation(_config(keep_final_ccp=True)).final_ccp is not None

    def test_summary_contains_headline_fields(self):
        summary = run_simulation(_config()).summary()
        for key in ("protocol", "collector", "checkpoints", "collected", "recoveries"):
            assert key in summary


class TestRunnerWithFailures:
    def test_recoveries_are_recorded(self):
        result = run_simulation(
            _config(failures=FailureSchedule.of([(30.0, 1), (45.0, 2)]), audit="full")
        )
        assert len(result.recoveries) == 2
        for record in result.recoveries:
            assert record.faulty in ((1,), (2,))
            assert record.rolled_back_processes >= 1
        assert result.all_audits_safe
        assert result.all_audits_optimal

    def test_crash_before_any_checkpoint_is_impossible_by_construction(self):
        """Every process stores s^0 at start, so even an immediate crash recovers."""
        result = run_simulation(_config(failures=FailureSchedule.of([(0.5, 0)])))
        assert len(result.recoveries) == 1

    def test_execution_continues_after_recovery(self):
        result = run_simulation(
            _config(failures=FailureSchedule.of([(20.0, 0)]), duration=80.0)
        )
        # Checkpoints keep being taken after the recovery session.
        assert result.total_checkpoints > 10

    def test_runner_exposes_nodes_and_trace(self):
        runner = SimulationRunner(_config())
        assert len(runner.nodes) == 3
        runner.run()
        assert runner.trace.log.total_events() > 0
        assert runner.engine.now <= 60.0
