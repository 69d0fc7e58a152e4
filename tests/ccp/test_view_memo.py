"""One door per analysis question: one knowledge view per recorder version,
and the view memoises its own answers.

Every CCP a recorder hands out at one version carries the same
:class:`~repro.ccp.incremental.IncrementalAnalysisView`, whatever volatile
vectors it was asked to attach, so every consumer of one state (the
optimality audit, the fuzzer's coverage features, the explorer's oracles)
shares one computation of each retained set and recovery line.  Pinning the
view to its version is what makes the memo safe: a stale view still refuses
to answer, memoised or not.
"""

from __future__ import annotations

import pytest

from repro.ccp.incremental import IncrementalAnalysisView
from repro.core.optimality import audit_garbage_collection
from repro.fuzz import state_features
from repro.scenarios.random_patterns import TraceFeeder, random_ccp_script
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import make_workload


def _recorder(seed: int = 3, num_processes: int = 3) -> TraceRecorder:
    recorder = TraceRecorder(num_processes)
    TraceFeeder(recorder).feed(random_ccp_script(seed, num_processes=num_processes))
    return recorder


@pytest.fixture
def retained_calls(monkeypatch):
    """The theorems ``IncrementalAnalysisView._retained`` was run for."""
    calls = []
    original = IncrementalAnalysisView._retained

    def counting(self, theorem, owners=None):
        calls.append(theorem)
        return original(self, theorem, owners)

    monkeypatch.setattr(IncrementalAnalysisView, "_retained", counting)
    return calls


class TestOneViewPerVersion:
    def test_every_door_at_one_version_is_the_same_view(self):
        recorder = _recorder()
        view = recorder.knowledge_view()
        plain = recorder.ccp()
        assert recorder.ccp() is plain  # one pattern per version ...
        assert plain.analysis_provider is view  # ... carrying the one view
        assert recorder.knowledge_view() is view

    def test_a_new_version_gets_a_new_view(self):
        recorder = _recorder()
        view = recorder.knowledge_view()
        recorder.record_internal(0, time=1e9)
        assert recorder.knowledge_view() is not view
        assert recorder.ccp().analysis_provider is recorder.knowledge_view()


class TestTheViewMemoisesItsAnswers:
    def test_each_retained_set_is_computed_once(self, retained_calls):
        recorder = _recorder()
        first = recorder.ccp().analysis_provider.theorem1_retained()
        assert recorder.knowledge_view().theorem1_retained() is first
        recorder.knowledge_view().theorem2_retained()
        recorder.knowledge_view().theorem2_retained()
        assert retained_calls == [1, 2]

    def test_recovery_lines_are_memoised_per_faulty_set(self):
        view = _recorder().knowledge_view()
        line = view.recovery_line({0})
        assert view.recovery_line([0]) is line
        assert view.recovery_line(frozenset({1})) is view.recovery_line({1})
        assert view.recovery_line({0, 1}) is not line

    def test_audit_and_coverage_of_one_state_share_each_retained_set(self, retained_calls):
        runner = SimulationRunner(
            SimulationConfig(
                num_processes=3,
                duration=30.0,
                workload=make_workload("uniform-random"),
                seed=7,
            )
        )
        runner.run()
        assert retained_calls == []  # nobody asked during an unaudited run
        retained = {node.pid: node.storage.retained_indices() for node in runner.nodes}
        assert audit_garbage_collection(runner.trace.knowledge_view(), retained).ok
        state_features(runner)  # its pattern carries the same view
        assert sorted(retained_calls) == [1, 2]

    def test_a_stale_view_still_refuses_after_memoising(self):
        recorder = _recorder()
        view = recorder.knowledge_view()
        view.theorem1_retained()
        view.theorem2_retained()
        view.recovery_line({0})
        recorder.record_internal(1, time=1e9)
        for query in (
            view.theorem1_retained,
            view.theorem2_retained,
            lambda: view.recovery_line({0}),
        ):
            with pytest.raises(RuntimeError, match="stale incremental analysis view"):
                query()


class TestTheKernelMemoisesItsUselessSet:
    def test_one_kernel_per_pattern_and_one_useless_tuple_per_kernel(self):
        ccp = _recorder().ccp()
        assert ccp.zigzag is ccp.zigzag
        useless = ccp.zigzag.useless_checkpoints()
        assert isinstance(useless, tuple)
        assert ccp.zigzag.useless_checkpoints() is useless
