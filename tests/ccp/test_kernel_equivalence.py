"""Bitset kernel vs brute-force reference: query-for-query equivalence.

The bitset :class:`~repro.ccp.zigzag.ZigzagAnalysis` kernel must answer every
relation query identically to the message-level BFS reference
(:class:`~repro.ccp.zigzag.BruteForceZigzagAnalysis`), and the shared analysis
cache must reproduce the Theorem-1/2 retained sets and Lemma-1 recovery lines
of the literal transcriptions (the ``assert_view_matches_literal`` fixture).
Both are checked across a corpus of seeded random CCPs (crossing messages, zigzag
cycles, in-transit messages, uneven checkpoint rates) plus the paper's
figures.

The incremental trace-recorder CCP is checked against a from-scratch
construction of the same log, including after a recovery truncation.
"""

import pytest

from repro.ccp.incremental import IncrementalAnalysisView
from repro.ccp.pattern import CCP
from repro.ccp.zigzag import BruteForceZigzagAnalysis, ZigzagAnalysis
from repro.scenarios.random_patterns import (
    feed_trace_recorder,
    random_ccp,
    random_ccp_script,
)
from repro.simulation.trace import TraceRecorder

SEEDS = list(range(60))


def _corpus_ccp(seed: int) -> CCP:
    # Vary shape with the seed so the corpus covers 2..6 processes and both
    # checkpoint-sparse and checkpoint-dense patterns.
    return random_ccp(
        seed,
        num_processes=2 + seed % 5,
        num_messages=20 + (seed * 7) % 45,
        checkpoint_rate=0.15 + 0.04 * (seed % 6),
        undelivered_fraction=0.15,
    )


def _all_general_ids(ccp: CCP):
    return [cid for pid in ccp.processes for cid in ccp.general_ids(pid)]


class TestKernelMatchesBruteForce:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_zigzag_relation_pointwise(self, seed):
        ccp = _corpus_ccp(seed)
        kernel = ZigzagAnalysis(ccp)
        brute = BruteForceZigzagAnalysis(ccp)
        ids = _all_general_ids(ccp)
        for source in ids:
            for target in ids:
                assert kernel.zigzag_exists(source, target) == brute.zigzag_exists(
                    source, target
                ), f"seed {seed}: disagreement on {source} ~> {target}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zigzag_pairs_and_useless_checkpoints(self, seed):
        ccp = _corpus_ccp(seed)
        kernel = ZigzagAnalysis(ccp)
        brute = BruteForceZigzagAnalysis(ccp)
        assert set(kernel.zigzag_pairs()) == set(brute.zigzag_pairs())
        assert kernel.useless_checkpoints() == brute.useless_checkpoints()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_theorem_retained_sets_match_reference(self, seed, assert_view_matches_literal):
        assert_view_matches_literal(_corpus_ccp(seed))

    @pytest.mark.parametrize("seed", SEEDS[:20])
    def test_witness_paths_are_valid_zigzag_sequences(self, seed):
        ccp = _corpus_ccp(seed)
        kernel = ZigzagAnalysis(ccp)
        ids = _all_general_ids(ccp)
        for source in ids:
            for target in ids:
                if kernel.zigzag_exists(source, target):
                    witness = kernel.find_zigzag_path(source, target)
                    assert witness is not None
                    assert kernel.is_zigzag_sequence(
                        witness.message_ids, source, target
                    )

    def test_kernel_on_paper_figures(self, figure1_ccp, figure2_ccp):
        for ccp in (figure1_ccp, figure2_ccp):
            kernel = ZigzagAnalysis(ccp)
            brute = BruteForceZigzagAnalysis(ccp)
            assert set(kernel.zigzag_pairs()) == set(brute.zigzag_pairs())
            assert kernel.useless_checkpoints() == brute.useless_checkpoints()


class TestTrackerMatchesTheLiteralTheorems:
    """The knowledge view every CCP is served from equals the literal
    Theorem-1/2 and Lemma-1 transcriptions on the hand-built patterns and on
    scripted ones of growing shape."""

    def test_on_the_paper_figures(
        self,
        assert_view_matches_literal,
        figure1_ccp,
        figure1_without_m3_ccp,
        figure2_ccp,
        figure3_ccp,
        figure4_ccp,
    ):
        for ccp in (figure1_ccp, figure1_without_m3_ccp, figure2_ccp, figure3_ccp, figure4_ccp):
            assert_view_matches_literal(ccp)

    @pytest.mark.parametrize(
        "num_processes, num_messages",
        [(2, 10), (3, 20), (4, 40), (5, 60), (6, 80)],
        ids=lambda value: str(value),
    )
    def test_on_scripted_patterns(self, assert_view_matches_literal, num_processes, num_messages):
        for seed in SEEDS:
            script = random_ccp_script(
                seed, num_processes=num_processes, num_messages=num_messages
            )
            recorder = TraceRecorder(num_processes)
            feed_trace_recorder(recorder, script)
            assert_view_matches_literal(recorder)


def _from_scratch(recorder: TraceRecorder) -> CCP:
    """A new CCP over the recorder's log: no memo, a fresh causal order."""
    return CCP(
        recorder.log,
        recorded_dvs=recorder.recorded_checkpoint_dvs(),
        analysis_provider=IncrementalAnalysisView(recorder, recorder.knowledge_tracker),
    )


class TestIncrementalTraceCcp:
    """trace.ccp() must equal a from-scratch CCP over the same log."""

    def _assert_equivalent(self, incremental: CCP, fresh: CCP):
        assert incremental.messages() == fresh.messages()
        ids = _all_general_ids(fresh)
        assert ids == _all_general_ids(incremental)
        for a in ids:
            for b in ids:
                assert incremental.causally_precedes(a, b) == fresh.causally_precedes(
                    a, b
                )
        kernel = ZigzagAnalysis(incremental)
        brute = BruteForceZigzagAnalysis(fresh)
        assert set(kernel.zigzag_pairs()) == set(brute.zigzag_pairs())

    @pytest.mark.parametrize("seed", SEEDS[:15])
    def test_matches_from_scratch_construction(self, seed):
        num_processes = 3 + seed % 3
        script = random_ccp_script(seed, num_processes=num_processes, num_messages=30)
        recorder = TraceRecorder(num_processes)
        feed_trace_recorder(recorder, script)
        incremental = recorder.ccp()
        self._assert_equivalent(incremental, _from_scratch(recorder))

    def test_snapshot_is_cached_until_mutation(self):
        recorder = TraceRecorder(3)
        feed_trace_recorder(recorder, random_ccp_script(5, num_processes=3))
        first = recorder.ccp()
        assert recorder.ccp() is first  # same pattern, same zigzag kernel
        assert recorder.ccp().zigzag is first.zigzag
        recorder.record_internal(0, time=1e9)
        second = recorder.ccp()
        assert second is not first

    def test_incremental_state_survives_recovery_truncation(self):
        from repro.simulation.failures import FailureSchedule
        from repro.simulation.runner import SimulationConfig, SimulationRunner
        from repro.simulation.workloads import UniformRandomWorkload

        config = SimulationConfig(
            num_processes=3,
            duration=60.0,
            workload=UniformRandomWorkload(
                mean_message_gap=1.5, mean_checkpoint_gap=6.0
            ),
            failures=FailureSchedule.of([(30.0, 1)]),
            seed=11,
            audit="full",
        )
        runner = SimulationRunner(config)
        result = runner.run()
        assert result.recoveries  # the crash actually happened
        assert result.all_audits_safe
        incremental = runner.trace.ccp()
        self._assert_equivalent(incremental, _from_scratch(runner.trace))
