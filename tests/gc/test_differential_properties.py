"""Differential collector properties: the optimality ordering, seeded sweep.

Collectors never perturb the application execution (workloads draw from the
engine generator, network links own private streams, control traffic rides
its own per-link streams), so running every registered collector against the
same seed yields the *same* execution — which makes their retained sets
directly comparable.  The paper's ordering must then hold pointwise:

    retained(rdt-lgc)  ⊆  retained(C)  ⊆  retained(none)     for every C

— RDT-LGC is optimal (eliminates everything causally identifiable as
obsolete, Theorem 5), every baseline is merely safe-and-conservative, and
``none`` eliminates nothing.  Swept across protocol × workload × churn axes.
The Manivannan–Singhal stand-in runs with its timing assumption *honoured*
(window far above the run length); the violated-assumption regime is the
unsafe one and is exercised by the campaign failure-path tests instead.
"""

from __future__ import annotations

import random

import pytest

from repro.gc.registry import available_collectors
from repro.simulation.failures import FailureModelSpec, FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.workloads import make_workload

#: Baseline options of the differential sweep (MS window honoured).
SWEEP_OPTIONS = {
    "all-process-line": {"period": 10.0},
    "wang-coordinated": {"period": 10.0},
    "manivannan-singhal": {"checkpoint_period": 100.0},
}

NUM_PROCESSES = 3
DURATION = 40.0


def _failure_axis(label: str) -> FailureSchedule:
    if label == "none":
        return FailureSchedule.none()
    assert label == "churn"
    return FailureModelSpec.of("churn", {"hazard_rate": 0.01}).schedule(
        num_processes=NUM_PROCESSES, duration=DURATION, rng=random.Random(7)
    )


def _run_all_collectors(workload: str, protocol: str, failures, seed: int):
    """Retained sets per collector, plus the messages_sent sanity anchor."""
    outcomes = {}
    for collector in available_collectors():
        runner = SimulationRunner(
            SimulationConfig(
                num_processes=NUM_PROCESSES,
                duration=DURATION,
                workload=make_workload(workload),
                protocol=protocol,
                collector=collector,
                collector_options=SWEEP_OPTIONS.get(collector, {}),
                failures=failures,
                seed=seed,
            )
        )
        result = runner.run()
        outcomes[collector] = (
            {
                node.pid: frozenset(node.storage.retained_indices())
                for node in runner.nodes
            },
            result.messages_sent,
        )
    return outcomes


@pytest.mark.parametrize("protocol", ["fdas", "cbr"])
@pytest.mark.parametrize("workload", ["uniform-random", "ring"])
@pytest.mark.parametrize("failure_label", ["none", "churn"])
def test_retained_sets_respect_the_optimality_ordering(
    protocol, workload, failure_label
):
    failures = _failure_axis(failure_label)
    for seed in (0, 1):
        outcomes = _run_all_collectors(workload, protocol, failures, seed)
        # Sanity: identical executions across collectors — the comparison
        # below is meaningless if a collector perturbed the run.
        assert len({messages for _, messages in outcomes.values()}) == 1
        rdt_retained, _ = outcomes["rdt-lgc"]
        none_retained, _ = outcomes["none"]
        for collector, (retained, _) in outcomes.items():
            for pid in range(NUM_PROCESSES):
                assert rdt_retained[pid] <= retained[pid], (
                    f"{collector} (pid {pid}, seed {seed}): retained "
                    f"{sorted(retained[pid])} misses rdt-lgc-retained "
                    f"{sorted(rdt_retained[pid])} — it eliminated something "
                    f"causal knowledge cannot justify"
                )
                assert retained[pid] <= none_retained[pid], (
                    f"{collector} (pid {pid}, seed {seed}): retained "
                    f"{sorted(retained[pid])} exceeds the no-GC superset "
                    f"{sorted(none_retained[pid])}"
                )


def test_none_collector_is_the_trivial_upper_bound():
    """`none` retains exactly everything stored (minus rollback losses)."""
    failures = _failure_axis("none")
    runner = SimulationRunner(
        SimulationConfig(
            num_processes=NUM_PROCESSES,
            duration=DURATION,
            workload=make_workload("uniform-random"),
            collector="none",
            failures=failures,
            seed=3,
        )
    )
    result = runner.run()
    assert result.total_collected == 0
    assert result.total_retained_final == result.total_checkpoints
