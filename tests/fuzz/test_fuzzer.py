"""Fuzz-loop tests: determinism, corpus replay, violation re-finding."""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.explore import (
    ExploreConfig,
    canaries_registered,
    replay_counterexample,
    ring_program,
)
from repro.explore.executor import ScheduleExecutor
from repro.explore.shrink import persist_counterexample, shrink
from repro.fuzz import (
    Corpus,
    builtin_targets,
    fuzz,
    replay_corpus_entry,
    resolve_target,
)

#: Budget the violating targets must be re-found within (cold corpus).
REFIND_BUDGET = 2000


class TestDeterminism:
    def test_same_seed_and_budget_reproduce_corpus_and_coverage(self, tmp_path):
        a = fuzz("ring-crash", budget=100, seed=7, corpus=str(tmp_path / "a"))
        b = fuzz("ring-crash", budget=100, seed=7, corpus=str(tmp_path / "b"))
        index_a = (tmp_path / "a" / "index.json").read_text()
        index_b = (tmp_path / "b" / "index.json").read_text()
        assert index_a == index_b
        assert a.stats.as_dict() == b.stats.as_dict()
        entries_a = sorted(glob.glob(str(tmp_path / "a" / "entries" / "*")))
        entries_b = sorted(glob.glob(str(tmp_path / "b" / "entries" / "*")))
        assert [os.path.basename(p) for p in entries_a] == [
            os.path.basename(p) for p in entries_b
        ]
        for path_a, path_b in zip(entries_a, entries_b):
            assert open(path_a, "rb").read() == open(path_b, "rb").read()

    def test_different_seeds_diverge(self):
        a = fuzz("ring", budget=80, seed=0, explorer_seed_executions=0)
        b = fuzz("ring", budget=80, seed=1, explorer_seed_executions=0)
        assert set(a.corpus.entries) != set(b.corpus.entries)


class TestCorpusReplay:
    def test_every_persisted_entry_replays_byte_identically(self, tmp_path):
        fuzz("ring-crash", budget=80, seed=3, corpus=str(tmp_path / "c"))
        paths = glob.glob(str(tmp_path / "c" / "entries" / "*.trace.jsonl"))
        assert paths
        for path in paths:
            replay = replay_corpus_entry(path)
            assert replay.byte_identical, path
            assert replay.trace_events > 0

    def test_warm_corpus_resumes_without_duplicating(self, tmp_path):
        root = str(tmp_path / "warm")
        cold = fuzz("ring", budget=80, seed=0, corpus=root)
        warm = fuzz("ring", budget=40, seed=1, corpus=root)
        # The warm run loaded the cold run's coverage: nothing it reaches
        # at this size is novel, so the corpus does not grow.
        assert len(warm.corpus) == len(cold.corpus)
        assert warm.stats.corpus_added == 0
        index = json.loads((tmp_path / "warm" / "index.json").read_text())
        assert len(index["entries"]) == len(cold.corpus)

    def test_index_round_trips_through_load(self, tmp_path):
        root = str(tmp_path / "rt")
        run = fuzz("ring", budget=60, seed=2, corpus=root)
        loaded = Corpus.load(root)
        assert set(loaded.entries) == set(run.corpus.entries)
        assert len(loaded.coverage) == len(run.corpus.coverage)
        for entry in loaded.ordered():
            assert entry.config == run.target.config
            assert entry.features


    def test_a_corpus_written_for_another_configuration_is_refused(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "ring"
        fuzz("ring", budget=30, seed=0, corpus=str(root))
        index = (root / "index.json").read_bytes()
        entries = sorted(os.listdir(root / "entries"))

        def no_execution(*args, **kwargs):
            raise AssertionError("a refused corpus must be refused before executing")

        monkeypatch.setattr(ScheduleExecutor, "start", no_execution)
        targets = builtin_targets()
        with pytest.raises(ValueError) as raised:
            fuzz("gossip", budget=30, seed=0, corpus=str(root))
        message = str(raised.value)
        assert str(targets["ring"].config.describe()) in message
        assert str(targets["gossip"].config.describe()) in message
        assert (root / "index.json").read_bytes() == index
        assert sorted(os.listdir(root / "entries")) == entries


def _run_document(result, root):
    """Everything a fuzz run produced, artifact bytes included, as one value."""
    files = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    findings = [
        (f.violation, f.schedule, f.shrunk, os.path.relpath(f.artifact, root))
        for f in result.findings
    ]
    return (
        result.stats.as_dict(),
        list(result.corpus.entries),
        result.coverage.as_document(),
        findings,
        files,
    )


class TestAuditSkip:
    """A mutant audits only the states beyond the prefix its parent, executed
    clean earlier in the same run, already passed."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("target", sorted(builtin_targets()))
    def test_skipping_changes_no_result(
        self, tmp_path, monkeypatch, full_audit_execute, target, seed
    ):
        skipping = fuzz(target, budget=40, seed=seed, corpus=str(tmp_path / "s"))
        monkeypatch.setattr(ScheduleExecutor, "execute", full_audit_execute)
        reference = fuzz(target, budget=40, seed=seed, corpus=str(tmp_path / "r"))
        assert _run_document(skipping, str(tmp_path / "s")) == _run_document(
            reference, str(tmp_path / "r")
        )

    def test_skipping_changes_no_unguided_result(
        self, monkeypatch, full_audit_execute
    ):
        options = dict(budget=60, seed=1, guided=False, explorer_seed_executions=0)
        skipping = fuzz("ring3-crash", **options)
        monkeypatch.setattr(ScheduleExecutor, "execute", full_audit_execute)
        reference = fuzz("ring3-crash", **options)
        assert skipping.stats.as_dict() == reference.stats.as_dict()
        assert skipping.coverage.as_document() == reference.coverage.as_document()

    def test_warm_parents_audit_from_zero(self, tmp_path, monkeypatch):
        root = str(tmp_path / "warm")
        cold = fuzz("ring3-crash", budget=30, seed=1, corpus=root,
                    explorer_seed_executions=0)
        loaded = set(Corpus.load(root).entries)
        assert loaded == set(cold.corpus.entries)
        # The fuzz loop's executions, in order: (schedule, check_from, clean).
        calls = []
        execute = ScheduleExecutor.execute

        def spy(self, schedule, *, check_from=0, state_probe=None, **options):
            outcome = execute(self, schedule, check_from=check_from,
                              state_probe=state_probe, **options)
            if state_probe is not None:
                calls.append((tuple(schedule), check_from, outcome.violation is None))
            return outcome

        monkeypatch.setattr(ScheduleExecutor, "execute", spy)
        warm = fuzz("ring3-crash", budget=80, seed=7, corpus=root,
                    explorer_seed_executions=0)
        check_from_of = {schedule: check_from for schedule, check_from, _ in calls}
        children_of_loaded = [
            entry for entry in warm.corpus.ordered()
            if entry.entry_id not in loaded and entry.parent in loaded
        ]
        assert children_of_loaded
        for entry in children_of_loaded:
            assert check_from_of[entry.schedule] == 0, entry.entry_id
        # Whatever a candidate skipped, this run executed clean before.
        clean = []
        skipped = 0
        for schedule, check_from, ok in calls:
            if check_from:
                skipped += 1
                assert any(
                    prior[:check_from] == schedule[:check_from] for prior in clean
                )
            if ok:
                clean.append(schedule)
        assert skipped


class TestShrinkerAuditSkip:
    """Pass 1 of the shrinker audits a candidate from the dropped position."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("target", ["canary-unsafe", "canary-hoarder", "ms-window"])
    def test_skipping_changes_no_shrunk_counterexample(
        self, tmp_path, monkeypatch, full_audit_execute, target, seed
    ):
        raw = fuzz(target, budget=REFIND_BUDGET, seed=seed, minimize=False,
                   stop_after_findings=1)
        (finding,) = raw.findings
        config = raw.target.config
        execute = ScheduleExecutor.execute
        # Every execution, in order: (schedule, check_from, violation step).
        calls = []

        def spy(self, schedule, *, check_from=0, **options):
            outcome = execute(self, schedule, check_from=check_from, **options)
            step = outcome.violation.step if outcome.violation else None
            calls.append((tuple(schedule), check_from, step))
            return outcome

        fast_path = str(tmp_path / "fast.trace.jsonl")
        reference_path = str(tmp_path / "reference.trace.jsonl")
        with canaries_registered():
            monkeypatch.setattr(ScheduleExecutor, "execute", spy)
            fast = shrink(config, finding.schedule, finding.violation)
            persist_counterexample(fast, fast_path)
            monkeypatch.setattr(ScheduleExecutor, "execute", full_audit_execute)
            reference = shrink(config, finding.schedule, finding.violation)
            persist_counterexample(reference, reference_path)
        # Whatever a candidate skipped, an earlier one reached clean.
        skipped = [call for call in calls if call[1]]
        assert skipped
        for index, (schedule, check_from, _) in enumerate(calls):
            if check_from:
                assert any(
                    prior[:check_from] == schedule[:check_from] and step > check_from
                    for prior, _, step in calls[:index]
                    if step is not None
                )
        assert fast.schedule == reference.schedule
        assert fast.violation == reference.violation
        assert fast.attempts == reference.attempts
        assert fast == reference
        with open(fast_path, "rb") as a, open(reference_path, "rb") as b:
            assert a.read() == b.read()


class TestViolationRefinding:
    @pytest.mark.parametrize(
        "target,expected_kind",
        [
            ("canary-unsafe", "safety"),
            ("canary-hoarder", "optimality"),
            ("ms-window", "safety"),
        ],
    )
    def test_violating_targets_are_refound_and_shrunk(
        self, tmp_path, target, expected_kind
    ):
        result = fuzz(
            target,
            budget=REFIND_BUDGET,
            seed=0,
            corpus=str(tmp_path / target),
            stop_after_findings=1,
        )
        assert not result.ok
        kinds = [finding.violation.kind for finding in result.findings]
        assert expected_kind in kinds
        finding = result.findings[0]
        assert finding.shrunk is not None
        assert len(finding.shrunk.schedule) <= len(finding.schedule)
        # The persisted counterexample is a replayable explorer artifact.
        assert finding.artifact is not None and os.path.exists(finding.artifact)
        with canaries_registered():
            replay = replay_counterexample(finding.artifact)
        assert replay.byte_identical
        assert replay.replayed_violation.kind == expected_kind

    def test_clean_targets_stay_clean(self):
        result = fuzz("ring", budget=150, seed=0)
        assert result.ok
        assert result.stats.violations == 0

    def test_crash_boundary_candidates_are_invalid_not_violations(self):
        result = fuzz("ring-crash", budget=150, seed=0)
        assert result.ok
        assert result.stats.invalid > 0


class TestGuidance:
    def test_guided_reaches_more_coverage_than_random(self):
        guided = fuzz(
            "ring3-crash", budget=150, seed=0,
            guided=True, minimize=False, explorer_seed_executions=0,
        )
        unguided = fuzz(
            "ring3-crash", budget=150, seed=0,
            guided=False, minimize=False, explorer_seed_executions=0,
        )
        assert guided.stats.features > unguided.stats.features
        # The baseline retains nothing: its corpus stays empty.
        assert len(unguided.corpus) == 0

    def test_budget_is_respected(self):
        result = fuzz("ring", budget=25, seed=0, explorer_seed_executions=0)
        assert result.stats.executions <= 25


class TestTargets:
    def test_builtin_targets_resolve(self):
        targets = builtin_targets()
        assert {
            "ring", "ring-crash", "ring3-crash", "star-crash", "gossip",
            "canary-unsafe", "canary-hoarder", "ms-window",
        } <= set(targets)
        for name, target in targets.items():
            assert resolve_target(name) == target

    def test_unknown_target_is_a_value_error_naming_accepted(self):
        with pytest.raises(ValueError, match="accepted"):
            resolve_target("bogus")

    def test_bare_config_becomes_a_custom_target(self):
        config = ExploreConfig(num_processes=2, program=ring_program(2, 2))
        target = resolve_target(config)
        assert target.name == "custom"
        assert target.config == config
