"""Conformance canary suite: the oracles must catch seeded collector bugs.

Mutation-testing the verification subsystem itself: two deliberately broken
collectors — one unsafe (discards a Theorem-1-required checkpoint under a
reordered delivery), one non-optimal (retains a Theorem-2-obsolete one) —
must be caught by the explorer *within a fixed budget*, while RDT-LGC passes
the identical sweep clean.  The found violations shrink to small
counterexamples (≤ 12 events) whose persisted traces replay byte-identically.
"""

from __future__ import annotations

import pytest

from repro.explore import (
    ExploreConfig,
    explore,
    persist_counterexample,
    replay_counterexample,
    ring_program,
    shrink,
)
from repro.gc.canaries import CANARY_NAMES

#: The fixed budget the conformance suite promises detection within.
CANARY_BUDGET = 2000

#: The shared sweep configuration (identical for canaries and RDT-LGC).
def _sweep_config(collector: str) -> ExploreConfig:
    return ExploreConfig(
        num_processes=2, program=ring_program(2, 4), collector=collector
    )


@pytest.fixture(scope="module")
def caught():
    """Explore both canaries once; shared by the assertion tests below."""
    found = {}
    for name in CANARY_NAMES:
        result = explore(_sweep_config(name), max_executions=CANARY_BUDGET)
        found[name] = result
    return found


class TestCanariesAreCaught:
    def test_unsafe_canary_violates_safety_within_budget(self, caught):
        result = caught["canary-unsafe"]
        assert not result.ok
        assert result.stats.executions <= CANARY_BUDGET
        assert result.first.violation.kind == "safety"
        assert "Theorem-1-required" in result.first.violation.detail

    def test_hoarder_canary_violates_optimality_within_budget(self, caught):
        result = caught["canary-hoarder"]
        assert not result.ok
        assert result.stats.executions <= CANARY_BUDGET
        assert result.first.violation.kind == "optimality"
        assert "Theorem-2-obsolete" in result.first.violation.detail

    def test_rdt_lgc_passes_the_same_sweep_clean(self):
        result = explore(_sweep_config("rdt-lgc"))
        assert result.stats.complete  # exhaustive, not budget-cut
        assert result.ok


class TestShrinkingAndReplay:
    @pytest.fixture(scope="class")
    def shrunk_pair(self, caught):
        return {
            name: shrink(
                caught[name].first.config,
                caught[name].first.schedule,
                caught[name].first.violation,
            )
            for name in CANARY_NAMES
        }

    def test_counterexamples_shrink_below_twelve_events(self, shrunk_pair):
        for name, shrunk in shrunk_pair.items():
            assert shrunk.trace_events <= 12, (
                f"{name}: shrunk to {shrunk.trace_events} events"
            )
            assert shrunk.violation.kind in ("safety", "optimality")

    def test_shrunk_counterexamples_are_one_minimal(self, shrunk_pair):
        """Removing any single delivery from the shrunk schedule kills the
        violation (the shrinking fixpoint invariant)."""
        from repro.explore import DELIVER, ScheduleExecutor

        for name, shrunk in shrunk_pair.items():
            for position, token in enumerate(shrunk.schedule):
                if token[0] != DELIVER:
                    continue
                candidate = (
                    shrunk.schedule[:position] + shrunk.schedule[position + 1:]
                )
                outcome = ScheduleExecutor(shrunk.config).execute(candidate)
                assert (
                    outcome.violation is None
                    or outcome.violation.kind != shrunk.violation.kind
                ), f"{name}: dropping token {position} kept the violation"

    def test_persisted_counterexamples_replay_byte_identically(
        self, shrunk_pair, tmp_path
    ):
        for name, shrunk in shrunk_pair.items():
            path = str(tmp_path / f"{name}.trace.jsonl")
            recurred = persist_counterexample(shrunk, path)
            assert recurred.kind == shrunk.violation.kind
            replay = replay_counterexample(path)
            assert replay.byte_identical
            assert replay.replayed_violation.kind == shrunk.violation.kind
            assert replay.recorded_violation["kind"] == shrunk.violation.kind

    def test_persisted_artifact_is_a_valid_traceio_trace(self, shrunk_pair, tmp_path):
        from repro.traceio.reader import TraceReader

        shrunk = shrunk_pair["canary-unsafe"]
        path = str(tmp_path / "unsafe.trace.jsonl")
        persist_counterexample(shrunk, path)
        replayed = TraceReader(path).replay()
        assert replayed.status == "aborted"  # sealed with the violation
        assert "violation" in (replayed.footer or {}).get("error", "")
        assert replayed.recorder.log.total_events() == shrunk.trace_events
        meta = replayed.meta["explorer"]
        assert meta["config"]["collector"] == "canary-unsafe"
        assert meta["violation"]["kind"] == shrunk.violation.kind

    def test_replay_without_provenance_is_rejected(self, tmp_path):
        from repro.traceio.writer import TraceWriter

        path = str(tmp_path / "plain.trace.jsonl")
        writer = TraceWriter.scripted(path, 2)
        writer.seal()
        with pytest.raises(ValueError, match="no explorer provenance"):
            replay_counterexample(path)


class TestExplorerSweepWithCanaries:
    def test_sweep_flags_exactly_the_canaries(self):
        """One shared sweep over {rdt-lgc} + canaries: the canaries are the
        only dirty cells (this is the CLI's --expect-violations contract)."""
        from repro.explore import sweep

        configs = [
            _sweep_config(name) for name in ("rdt-lgc",) + CANARY_NAMES
        ]
        entries = sweep(configs, max_executions=CANARY_BUDGET)
        verdicts = {entry.collector: entry.result.ok for entry in entries}
        assert verdicts == {
            "rdt-lgc": True,
            "canary-unsafe": False,
            "canary-hoarder": False,
        }
