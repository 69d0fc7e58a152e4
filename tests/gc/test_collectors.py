"""Tests for the garbage collectors (RDT-LGC, baselines, registry)."""

import pytest

from repro.gc.registry import available_collectors, collector_class, make_collector
from repro.scenarios.experiments import run_random_simulation
from repro.storage.stable import StableStorage


class TestRegistry:
    def test_available_collectors(self):
        names = available_collectors()
        assert {
            "none",
            "rdt-lgc",
            "all-process-line",
            "wang-coordinated",
            "manivannan-singhal",
        } <= set(names)

    def test_asynchronous_only_filter(self):
        asynchronous = available_collectors(asynchronous_only=True)
        assert "rdt-lgc" in asynchronous
        assert "wang-coordinated" not in asynchronous

    def test_make_collector_with_options(self):
        storage = StableStorage(0)
        collector = make_collector("wang-coordinated", 0, 4, storage, period=25.0)
        assert collector.pid == 0
        assert collector.uses_control_messages

    def test_unknown_collector(self):
        with pytest.raises(KeyError):
            collector_class("nope")


class TestCollectorsInSimulation:
    def test_none_collector_retains_everything(self):
        result = run_random_simulation(collector="none", duration=80.0, seed=2)
        assert result.total_collected == 0
        assert result.total_retained_final == result.total_checkpoints

    def test_rdt_lgc_collects_most_checkpoints(self):
        result = run_random_simulation(collector="rdt-lgc", duration=150.0, seed=2)
        assert result.total_collected > 0
        assert result.collection_ratio > 0.5
        assert result.control_messages == 0

    def test_wang_coordinated_is_safe_and_uses_control_messages(self):
        result = run_random_simulation(
            collector="wang-coordinated",
            collector_options={"period": 20.0},
            duration=150.0,
            seed=3,
            audit="safety",
        )
        assert result.control_messages > 0
        assert result.all_audits_safe
        assert result.total_collected > 0

    def test_all_process_line_is_safe_and_uses_control_messages(self):
        result = run_random_simulation(
            collector="all-process-line",
            collector_options={"period": 20.0},
            duration=150.0,
            seed=3,
            audit="safety",
        )
        assert result.control_messages > 0
        assert result.all_audits_safe

    def test_wang_coordinated_collects_at_least_as_much_as_all_process_line(self):
        wang = run_random_simulation(
            collector="wang-coordinated",
            collector_options={"period": 20.0},
            duration=200.0,
            seed=4,
        )
        line = run_random_simulation(
            collector="all-process-line",
            collector_options={"period": 20.0},
            duration=200.0,
            seed=4,
        )
        assert wang.total_retained_final <= line.total_retained_final

    def test_coordinated_collectors_never_discard_required_checkpoints(self):
        for name in ("wang-coordinated", "all-process-line"):
            result = run_random_simulation(
                collector=name,
                collector_options={"period": 15.0},
                duration=150.0,
                seed=6,
                crashes=1,
                audit="safety",
            )
            assert result.all_audits_safe
            ccp = result.final_ccp
            assert ccp is not None
            required = ccp.analysis_provider.theorem1_retained()
            retained = {
                (pid, index)
                for pid, count in enumerate(result.retained_final)
                for index in range(count)
            }
            # The audit already checks this precisely; here we only sanity-check
            # that nothing required exceeds what is retained in total.
            assert len(required) <= result.total_retained_final

    def test_manivannan_singhal_honours_its_window(self):
        result = run_random_simulation(
            collector="manivannan-singhal",
            collector_options={"checkpoint_period": 10.0, "max_message_delay": 3.0},
            duration=150.0,
            seed=5,
            mean_checkpoint_gap=5.0,
            audit="safety",
        )
        assert result.total_collected > 0
        assert result.all_audits_safe
