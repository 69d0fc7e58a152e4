"""Tests for the scenario builders shared by tests, examples and benchmarks."""

import pytest

from repro.ccp.rdt import check_rdt
from repro.scenarios.experiments import (
    random_run_config,
    run_random_simulation,
    run_worst_case,
)
from repro.scenarios.figures import (
    FIGURE4_ANNOTATIONS,
    drive_figure4,
    figure1_ccp,
    figure2_ccp,
    figure3_ccp,
    figure4_ccp,
)


class TestFigureBuilders:
    def test_figure1_shapes(self):
        ccp = figure1_ccp()
        assert ccp.num_processes == 3
        assert len(ccp.messages()) == 5
        assert check_rdt(ccp).is_rdt

    def test_figure1_without_m3_has_four_messages(self):
        assert len(figure1_ccp(include_m3=False).messages()) == 4

    def test_figure2_shapes(self):
        ccp = figure2_ccp()
        assert ccp.num_processes == 2
        assert ccp.last_stable(0) == 2 and ccp.last_stable(1) == 1

    def test_figure3_shapes(self):
        ccp = figure3_ccp()
        assert ccp.num_processes == 4
        assert check_rdt(ccp).is_rdt

    def test_figure4_ccp_matches_the_driven_execution(self):
        nodes = drive_figure4().nodes
        ccp = figure4_ccp()
        for node in nodes:
            assert ccp.dv(ccp.volatile_id(node.pid)) == node.current_dv

    def test_figure4_annotation_labels_match_the_steps(self):
        steps = drive_figure4().steps
        assert {label for label, _, _ in steps} == set(FIGURE4_ANNOTATIONS)

    def test_figure4_runs_without_control_messages_or_timers(self):
        """The hand-driven transport raises on either (Definition 8)."""
        transport = drive_figure4().nodes[0].transport
        with pytest.raises(RuntimeError, match="Definition 8"):
            transport.send_control_message(0, 1, "marker")
        with pytest.raises(RuntimeError, match="Definition 8"):
            transport.schedule_timer(1.0, lambda: None)


class TestExperimentBuilders:
    def test_random_run_config_fields(self):
        config = random_run_config(num_processes=3, duration=10.0, crashes=1, seed=4)
        assert config.num_processes == 3
        assert len(config.failures) == 1
        assert config.keep_final_ccp

    def test_run_random_simulation_executes(self):
        result = run_random_simulation(num_processes=2, duration=20.0, seed=1)
        assert result.total_checkpoints >= 2

    def test_run_worst_case_reaches_the_bound(self):
        result = run_worst_case(3)
        assert result.retained_final == (3, 3, 3)

    def test_explicit_workload_overrides_random_one(self):
        from repro.simulation.workloads import RingWorkload

        config = random_run_config(workload=RingWorkload(), duration=10.0)
        assert isinstance(config.workload, RingWorkload)
