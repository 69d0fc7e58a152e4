"""A finished run frees itself: ``SimulationRunner.close`` and ``run_simulation``.

A run's objects reference each other (node and control plane, ``UC`` and
collector, the network's handlers and the runner), so what a run holds is
cyclic garbage once it is over.  ``close()`` lets go of the bulk — the
port's kept occurrences and recorder, the network's link state and in-flight
copies — so reference counting frees it without waiting for a full pass of
the cyclic collector; ``run_simulation`` closes the runner it builds.
"""

import gc
import weakref

import pytest

from repro.simulation.failures import FailureSchedule
from repro.simulation.network import LinkFates
from repro.simulation.runner import SimulationConfig, SimulationRunner, run_simulation
from repro.simulation.workloads import UniformRandomWorkload
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
