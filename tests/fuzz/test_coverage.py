"""Coverage-signal tests: buckets, feature extraction, map round-trip."""

from __future__ import annotations

from repro.explore import ExploreConfig, ScheduleExecutor, ring_program
from repro.fuzz import CoverageMap, eager_schedule, lazy_schedule, state_features


class TestBucket:
    def test_exact_then_ranged(self):
        from repro.fuzz.coverage import bucket

        assert [bucket(n) for n in range(10)] == [0, 1, 2, 3, 4, 4, 5, 5, 5, 6]
        assert bucket(13) == 6
        assert bucket(14) == 7
        assert bucket(1000) == 7


class TestStateFeatures:
    def _features(self, config, schedule):
        captured = []
        outcome = ScheduleExecutor(config).execute(
            schedule, state_probe=captured.append
        )
        assert outcome.violation is None
        return state_features(captured[0])

    def test_features_are_hashable_tagged_tuples(self):
        config = ExploreConfig(num_processes=2, program=ring_program(2, 4))
        features = self._features(config, eager_schedule(config))
        assert features
        tags = {feature[0] for feature in features}
        assert tags <= {"zz", "scc", "useless", "ret", "rl", "pend"}
        # Every execution reports the always-on dimensions.
        assert {"scc", "useless", "ret", "pend"} <= tags

    def test_different_schedules_differ_somewhere(self):
        config = ExploreConfig(num_processes=2, program=ring_program(2, 4))
        eager = self._features(config, eager_schedule(config))
        lazy = self._features(config, lazy_schedule(config))
        assert eager != lazy

    def test_crash_execution_reports_recovery_lines(self):
        config = ExploreConfig(
            num_processes=2, program=ring_program(2, 4, crash_pid=0)
        )
        features = self._features(config, eager_schedule(config))
        assert any(feature[0] == "rl" for feature in features)

    def test_scc_feature_reads_the_kernel_condensation(self):
        # Uncoordinated checkpointing leaves zigzag cycles under the eager
        # schedule: two components of two intervals each.
        config = ExploreConfig(
            num_processes=2,
            program=ring_program(2, 4),
            protocol="uncoordinated",
            collector="none",
        )
        captured = []
        ScheduleExecutor(config).execute(
            eager_schedule(config), state_probe=captured.append
        )
        kernel = captured[0].trace.ccp().zigzag
        assert kernel.cycle_component_sizes() == [2, 2]
        features = state_features(captured[0])
        assert [f for f in features if f[0] == "scc"] == [("scc", 2, 2)]
        # An RD-trackable execution has no zigzag cycle at all.
        rdt = ExploreConfig(num_processes=2, program=ring_program(2, 4))
        assert ("scc", 0, 0) in self._features(rdt, eager_schedule(rdt))

    def test_extraction_is_deterministic(self):
        config = ExploreConfig(num_processes=2, program=ring_program(2, 4))
        schedule = eager_schedule(config)
        assert self._features(config, schedule) == self._features(config, schedule)


class TestCoverageMap:
    def test_observe_returns_only_novel_features(self):
        coverage = CoverageMap()
        first = coverage.observe(frozenset({("zz", 0, 1, 1), ("pend", 0)}))
        assert first == {("zz", 0, 1, 1), ("pend", 0)}
        second = coverage.observe(frozenset({("zz", 0, 1, 1), ("pend", 2)}))
        assert second == {("pend", 2)}
        assert len(coverage) == 3
        assert coverage.observed == 2

    def test_dimension_counts(self):
        coverage = CoverageMap()
        coverage.observe(frozenset({("zz", 0, 1, 1), ("zz", 1, 0, -1), ("pend", 0)}))
        assert coverage.dimension_counts() == {"pend": 1, "zz": 2}

    def test_document_round_trip(self):
        coverage = CoverageMap()
        coverage.observe(frozenset({("zz", 0, 1, 1), ("pend", 0)}))
        coverage.observe(frozenset({("ret", 1, 2, 3)}))
        rebuilt = CoverageMap.from_document(coverage.as_document())
        assert rebuilt.observed == coverage.observed
        assert rebuilt.first_seen == coverage.first_seen
        # Novelty verdicts continue where the original stopped.
        assert rebuilt.observe(frozenset({("pend", 0)})) == frozenset()
