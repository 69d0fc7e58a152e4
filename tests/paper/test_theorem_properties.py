"""Randomized property tests for the paper's theorems.

These tests drive the *whole* stack on randomly generated executions (several
protocols, workloads and seeds) and check the paper's claims against the
independent oracles:

* RDT protocols produce RD-trackable patterns (the standing assumption);
* Equation (2): recorded dependency vectors equal the ground-truth transitive
  dependencies;
* Theorem 1 == Definition 7 (needlessness), Theorem 2 ⊆ Theorem 1,
  Corollary 1 == Theorem 2;
* Lemma 1 == Definition 5 (recovery lines);
* Theorem 4 (safety) and Theorem 5 (optimality) of RDT-LGC, online, including
  across injected failures;
* the per-process space bound, the absence of control messages and the O(n)
  cost per event of Section 4.5.
"""

import itertools

import pytest
from experiments import complexity, small_run, space_bound, theorem4, theorem5
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios.experiments import run_random_simulation
from repro.ccp.rdt import check_rdt
from repro.core.obsolete import (
    needless_stable_checkpoints,
    obsolete_stable_checkpoints_corollary1,
    obsolete_stable_checkpoints_theorem1,
    obsolete_stable_checkpoints_theorem2,
)
from repro.recovery.recovery_line import recovery_line, recovery_line_brute_force


class TestRdtProtocolsProduceRdtPatterns:
    @pytest.mark.parametrize("protocol", ["fdas", "fdi", "cbr"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_protocol_guarantees_rdt(self, protocol, seed):
        result = run_random_simulation(
            num_processes=4,
            duration=80.0,
            seed=seed,
            protocol=protocol,
            collector="none",
            mean_message_gap=2.5,
            mean_checkpoint_gap=8.0,
        )
        assert result.final_ccp is not None
        assert check_rdt(result.final_ccp, collect_witnesses=False).is_rdt

    def test_uncoordinated_protocol_eventually_violates_rdt(self):
        violations = 0
        for seed in range(4):
            result = run_random_simulation(
                num_processes=3,
                duration=80.0,
                seed=seed,
                protocol="uncoordinated",
                collector="none",
                mean_message_gap=2.0,
                mean_checkpoint_gap=6.0,
            )
            assert result.final_ccp is not None
            if not check_rdt(result.final_ccp, collect_witnesses=False).is_rdt:
                violations += 1
        assert violations > 0


class TestEquationTwo:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_recorded_vectors_equal_ground_truth(self, seed):
        result = small_run(seed)
        ccp = result.final_ccp
        assert ccp is not None
        for pid in ccp.processes:
            for cid in ccp.stable_ids(pid):
                recorded = ccp.checkpoint(cid).dependency_vector
                assert recorded == ccp.ground_truth_dv(cid)


class TestObsoleteCharacterisations:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_needless_equals_theorem1(self, seed):
        ccp = small_run(seed).final_ccp
        assert ccp is not None
        assert needless_stable_checkpoints(ccp) == obsolete_stable_checkpoints_theorem1(ccp)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_theorem2_subset_of_theorem1_and_corollary1_matches(self, seed):
        ccp = small_run(seed).final_ccp
        assert ccp is not None
        theorem1 = obsolete_stable_checkpoints_theorem1(ccp)
        theorem2 = obsolete_stable_checkpoints_theorem2(ccp)
        assert theorem2 <= theorem1
        assert obsolete_stable_checkpoints_corollary1(ccp) == theorem2


class TestRecoveryLineLemma:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_lemma1_matches_definition5_for_all_faulty_sets(self, seed):
        ccp = small_run(seed).final_ccp
        assert ccp is not None
        processes = list(ccp.processes)
        for size in range(1, len(processes) + 1):
            for faulty in itertools.combinations(processes, size):
                assert recovery_line(ccp, faulty) == recovery_line_brute_force(ccp, faulty)


class TestRdtLgcSafetyAndOptimality:
    @pytest.mark.parametrize("seed", list(range(6)))
    def test_safe_and_optimal_without_failures(self, seed):
        result = small_run(seed)
        assert result.all_audits_safe
        assert result.all_audits_optimal

    @pytest.mark.parametrize("seed", list(range(4)))
    def test_safe_and_optimal_with_failures(self, seed):
        result = small_run(seed, crashes=2)
        assert len(result.recoveries) >= 1
        assert result.all_audits_safe
        assert result.all_audits_optimal

    @pytest.mark.parametrize("protocol", ["fdi", "cbr"])
    def test_safe_and_optimal_under_other_rdt_protocols(self, protocol):
        result = small_run(2, protocol=protocol)
        assert result.all_audits_safe
        assert result.all_audits_optimal

    def test_a_four_process_audit_sweep_finds_no_violation(self):
        """FDAS, FDI and CBR with up to three crashes: every audit — one per
        recovery session and one at the end — is safe and optimal."""
        for safety, optimality in zip(theorem4(), theorem5()):
            assert safety["audits"] == safety["recoveries"] + 1
            assert safety["safety violations"] == optimality["optimality violations"] == 0

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=100, max_value=10_000))
    def test_safety_holds_for_arbitrary_seeds(self, seed):
        result = run_random_simulation(
            num_processes=3,
            duration=40.0,
            seed=seed,
            protocol="fdas",
            collector="rdt-lgc",
            audit="full",
            mean_message_gap=2.0,
            mean_checkpoint_gap=6.0,
        )
        assert result.all_audits_safe
        assert result.all_audits_optimal


class TestSpaceBound:
    @pytest.mark.parametrize("num_processes", [2, 4, 6])
    def test_per_process_bound_holds_on_random_workloads(self, num_processes):
        result = run_random_simulation(
            num_processes=num_processes,
            duration=100.0,
            seed=17,
            protocol="fdas",
            collector="rdt-lgc",
            mean_message_gap=2.0,
            mean_checkpoint_gap=5.0,
        )
        assert result.max_retained_any_process <= num_processes + 1
        assert all(r <= num_processes for r in result.retained_final)

    def test_bound_holds_under_message_loss(self):
        result = run_random_simulation(
            num_processes=4,
            duration=100.0,
            seed=23,
            protocol="fdas",
            collector="rdt-lgc",
            drop_probability=0.2,
            audit="full",
        )
        assert result.max_retained_any_process <= 5
        assert result.all_audits_safe

    def test_the_bound_costs_no_control_message_and_global_knowledge_does(self):
        """n = 2, 4, 8: RDT-LGC within n (n + 1 transiently) and silent;
        Wang's coordinated collector pays control messages, and on the worst
        case they buy it a total no larger than RDT-LGC's."""
        for row in space_bound():
            n = row["n"]
            assert row["RDT-LGC transient"] <= n + 1 and row["RDT-LGC at rest"] <= n
            assert row["RDT-LGC control"] == 0 < row["Wang control"]
            if row["workload"] == "worst case":
                assert row["Wang total"] <= row["RDT-LGC total"]


class TestComplexity:
    def test_a_receive_and_a_checkpoint_execute_at_most_linearly_many_lines(self):
        """Executed Python lines of the middleware's ``deliver`` +
        ``take_checkpoint`` at n = 4, 16, 64, 256 grow no faster than n."""
        rows = complexity()
        for smaller, larger in zip(rows, rows[1:]):
            assert 0 < larger["lines per process"] <= smaller["lines per process"]
