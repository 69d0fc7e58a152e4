"""A finished run frees itself: ``SimulationRunner.close`` and ``run_simulation``.

A run's objects reference each other (node and control plane, ``UC`` and
collector, the network's handlers and the runner), so what a run holds is
cyclic garbage once it is over.  ``close()`` lets go of the bulk — the
recorder with its event log, knowledge tracker and memoised view and CCP,
the port's kept occurrences, the network's link state and in-flight copies —
so reference counting frees it without waiting for a full pass of the
cyclic collector; ``run_simulation`` closes the runner it builds.  No cycle
runs through a recorder's history either: its knowledge view refers back to
it weakly, so a recorder whose view and CCP were read is freed once its
owner drops it, and the view and CCP still answer if held.
"""

import gc
import weakref

import pytest

from repro.recovery.manager import RecoveryManager
from repro.recovery.recovery_line import recovery_line
from repro.scenarios.random_patterns import feed_trace_recorder, random_ccp_script
from repro.simulation.failures import FailureSchedule
from repro.simulation.network import LinkFates
from repro.simulation.runner import SimulationConfig, SimulationRunner, run_simulation
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload, WorstCaseWorkload
from repro.traceio.reader import TraceReader


def _config(**overrides):
    fields = dict(
        num_processes=4,
        duration=60.0,
        workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
        seed=3,
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


class TestRunSimulationReleasesTheRun:
    def test_a_link_stream_is_freed_without_the_cyclic_collector(self, monkeypatch):
        streams = []
        link_rng = LinkFates._link_rng

        def watched(fates, label, sender, receiver):
            rng = link_rng(fates, label, sender, receiver)
            streams.append(weakref.ref(rng))
            return rng

        monkeypatch.setattr(LinkFates, "_link_rng", watched)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = run_simulation(_config())
            assert result.messages_sent > 0 and streams
            assert [stream() for stream in streams] == [None] * len(streams)
        finally:
            if enabled:
                gc.enable()

    def test_the_runner_is_closed_even_when_the_run_raises(self, monkeypatch):
        closed = []
        close = SimulationRunner.close

        def recording_close(runner):
            closed.append(runner)
            close(runner)

        monkeypatch.setattr(SimulationRunner, "close", recording_close)
        bad = _config(failures=FailureSchedule.of([(0.0, 1)]))
        monkeypatch.setattr(
            SimulationRunner, "_handle_crash", lambda runner, pid: 1 / 0
        )
        with pytest.raises(ZeroDivisionError):
            run_simulation(bad)
        assert len(closed) == 1


class TestAClosedRunner:
    @pytest.fixture
    def finished(self):
        config = _config(failures=FailureSchedule.of([(30.0, 2)]), audit="safety")
        runner = SimulationRunner(config)
        return runner, runner.run()

    def test_run_trace_and_ccp_raise(self, finished):
        runner, _ = finished
        runner.close()
        for use in (runner.run, lambda: runner.trace, lambda: runner.trace.ccp()):
            with pytest.raises(RuntimeError, match="closed"):
                use()

    def test_close_is_idempotent_and_keeps_what_the_result_shares(self, finished):
        runner, result = finished
        samples, recoveries, audits = (
            list(result.samples), list(result.recoveries), list(result.audits)
        )
        assert samples and recoveries and audits
        runner.close()
        runner.close()
        assert result.samples == samples
        assert result.recoveries == recoveries and runner.recoveries == recoveries
        assert result.audits == audits

    def test_a_runner_closed_before_its_run_seals_its_trace(self, tmp_path):
        path = str(tmp_path / "unrun.trace.jsonl")
        SimulationRunner(_config(trace_path=path)).close()
        _, footer = TraceReader(path).summary()
        assert footer is not None and footer["status"] == "aborted"


@pytest.fixture
def collector_off():
    """The cyclic collector disabled (after one pass): only reference counting frees."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _history_refs(recorder):
    """Weak references to a recorder, its event log and its knowledge tracker."""
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    return [weakref.ref(recorder), weakref.ref(recorder.log), weakref.ref(tracker)]


def _watch_final_history(monkeypatch):
    """Weak references to each run's recorder, log and tracker as its result is built."""
    refs = []
    build_result = SimulationRunner._build_result

    def watched(runner):
        refs.extend(_history_refs(runner.trace))
        return build_result(runner)

    monkeypatch.setattr(SimulationRunner, "_build_result", watched)
    return refs


def _alive(refs):
    return [ref() is not None for ref in refs]


class TestNoCycleKeepsAHistoryAlive:
    def test_a_churn_run_frees_its_history_once_its_result_is_dropped(
        self, monkeypatch, collector_off
    ):
        refs = _watch_final_history(monkeypatch)
        crashes = FailureSchedule.of([(20.0, 1), (35.0, 2), (50.0, 0)])
        result = run_simulation(_config(failures=crashes, audit="full"))
        assert len(result.recoveries) == 3 and len(result.audits) == 4
        del result
        assert _alive(refs) == [False, False, False]

    def test_a_kept_final_ccp_holds_the_history_until_its_result_is_dropped(
        self, monkeypatch, collector_off
    ):
        refs = _watch_final_history(monkeypatch)
        result = run_simulation(
            _config(failures=FailureSchedule.of([(30.0, 2)]), keep_final_ccp=True)
        )
        # The pattern keeps its log and view's tracker, not the recorder.
        assert _alive(refs) == [False, True, True]
        assert result.final_ccp.analysis_provider.theorem1_retained()
        del result
        assert _alive(refs) == [False, False, False]

    def test_a_recorder_whose_view_and_ccp_were_read_is_freed_when_dropped(
        self, collector_off
    ):
        recorder = TraceRecorder(4)
        feed_trace_recorder(recorder, random_ccp_script(5, num_processes=4))
        recorder.knowledge_view().theorem2_retained()
        recorder.apply_recovery(RecoveryManager().plan(recorder.knowledge_view(), [1]))
        recorder.record_leave(3, 1000.0)
        view, ccp = recorder.knowledge_view(), recorder.ccp()
        assert ccp.analysis_provider is view and view.theorem1_retained() is not None
        refs = _history_refs(recorder)
        del recorder, view, ccp
        assert _alive(refs) == [False, False, False]


def _scripted(seed):
    """A recorder that ran a random script, a recovery session and a leave."""
    recorder = TraceRecorder(5)
    feed_trace_recorder(recorder, random_ccp_script(seed, num_processes=5, num_messages=60))
    recorder.apply_recovery(RecoveryManager().plan(recorder.knowledge_view(), [2]))
    recorder.record_leave(4, 1000.0)
    return recorder


def _answers(view, ccp):
    faulty_sets = [{pid} for pid in range(4)] + [{0, 3}]
    stable = [cid for pid in ccp.active_processes for cid in ccp.stable_ids(pid)]
    return (
        view.version,
        view.checkpoints_taken,
        view.theorem1_retained(),
        view.theorem2_retained(),
        [view.theorem1_retains(cid) for cid in stable],
        [view.dependency_vector(cid) for cid in stable],
        [view.theorem2_retained_of(pid) for pid in range(5)],
        [view.recovery_line(faulty) for faulty in faulty_sets],
        [recovery_line(ccp, faulty) for faulty in faulty_sets],
        [ccp.last_stable(pid) for pid in ccp.processes],
    )


def _watch_run(monkeypatch):
    """Weak references to each run's engine, first node and its storage, as
    its result is built."""
    refs = []
    build_result = SimulationRunner._build_result

    def watched(runner):
        node = runner.nodes[0]
        refs.extend([weakref.ref(runner.engine), weakref.ref(node), weakref.ref(node.storage)])
        return build_result(runner)

    monkeypatch.setattr(SimulationRunner, "_build_result", watched)
    return refs


class TestNoCycleKeepsARunAlive:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"failures": FailureSchedule.of([(20.0, 1), (35.0, 2)]), "audit": "full"},
            # The last round lies past the duration: its windows are never read.
            {"workload": WorstCaseWorkload(), "num_processes": 40, "duration": 35.0},
            {"collector": "wang-coordinated"},
        ],
        ids=["steady", "churn", "unread-windows", "control-plane"],
    )
    def test_the_engine_nodes_and_storage_are_freed_with_the_result(
        self, monkeypatch, collector_off, overrides
    ):
        refs = _watch_run(monkeypatch)
        result = run_simulation(_config(**overrides))
        assert result.total_checkpoints > 0 and len(refs) == 3
        del result
        assert _alive(refs) == [False, False, False]

    def test_a_closed_runner_is_freed_when_dropped(self, monkeypatch, collector_off):
        refs = _watch_run(monkeypatch)
        runner = SimulationRunner(_config(failures=FailureSchedule.of([(30.0, 2)])))
        runner.run()
        runner.close()
        del runner
        assert _alive(refs) == [False, False, False]


class TestAViewOutlivesItsRecorder:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_a_held_view_and_ccp_answer_as_before(
        self, seed, collector_off, assert_view_matches_literal
    ):
        twin = _scripted(seed)
        expected = _answers(twin.knowledge_view(), twin.ccp())
        recorder = _scripted(seed)
        # Taken, not asked: every answer below is computed after the drop.
        view, ccp = recorder.knowledge_view(), recorder.ccp()
        gone = weakref.ref(recorder)
        del recorder
        assert gone() is None
        assert _answers(view, ccp) == expected
        assert_view_matches_literal(ccp)
