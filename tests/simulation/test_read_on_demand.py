"""A run's occurrences reach the recorder at the first read — visible only in time.

The nodes of a :class:`~repro.simulation.runner.SimulationRunner` whose
recorder nobody has read yet keep their ``record_*`` occurrences; the first
read (``runner.trace``, ``current_ccp()``, a recovery session) applies them to
the one :class:`~repro.simulation.trace.TraceRecorder` through the calls the
nodes would have made, and from then on every call is forwarded as it
happens.  So a run read from before ``run()`` and a run never read until
afterwards must be the same run in everything but *when* the log was built —
and write the same trace file, which the port feeds until the first read.
"""

import dataclasses
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.causality.events import EventLog
from repro.membership import MembershipError, MembershipSchedule
from repro.scenarios.experiments import membership_churn_smoke_spec
from repro.simulation.channels import DuplicatingChannel, PartitionSchedule, UniformChannel
from repro.simulation.failures import FailureSchedule
from repro.simulation.network import NetworkConfig, NetworkStats
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload
from repro.traceio.reader import TraceReader, verify_trace
from repro.traceio.writer import TraceWriter

LOG_BUILDERS = ("add_send", "add_receive", "add_checkpoint")

LOSSY_DUPLICATING = NetworkConfig(
    channel=DuplicatingChannel(
        channel=UniformChannel(drop_probability=0.1), duplicate_probability=0.3
    )
)

SHAPES = {
    "default": {},
    "lossy-duplicating": {"network": LOSSY_DUPLICATING},
    "one-crash": {"failures": FailureSchedule.of([(45.0, 2)])},
    "several-crashes": {
        "failures": FailureSchedule.of([(20.0, 1), (41.5, 3), (42.0, 0), (70.0, 1)]),
        "network": LOSSY_DUPLICATING,
    },
    "full-audit": {"audit": "full", "keep_final_ccp": True},
    "full-audit-crash": {"audit": "full", "failures": FailureSchedule.of([(30.0, 4)])},
}


def _config(seed: int = 1, **overrides) -> SimulationConfig:
    return SimulationConfig(
        **{
            "num_processes": 5,
            "duration": 90.0,
            "workload": UniformRandomWorkload(),
            "seed": seed,
            **overrides,
        }
    )


def _recorded_state(runner: SimulationRunner):
    """Everything a reader can learn from the runner's recorder."""
    recorder = runner.trace
    analyses = runner.current_ccp().analyses
    return {
        "events": [tuple(recorder.log.history(pid)) for pid in recorder.log.processes],
        "messages": recorder.log.messages(),
        "dvs": recorder.recorded_checkpoint_dvs(),
        "taken": recorder.checkpoints_taken,
        "version": recorder.version,
        "theorem1": analyses.theorem1_retained,
        "theorem2": analyses.theorem2_retained,
    }


@pytest.fixture
def log_calls(monkeypatch):
    """``{name: calls so far}`` of the three ``EventLog`` methods that build a log."""
    calls = dict.fromkeys(LOG_BUILDERS, 0)

    def counting(name, method):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return counted

    for name in LOG_BUILDERS:
        monkeypatch.setattr(EventLog, name, counting(name, getattr(EventLog, name)))
    return calls


class TestReadOnDemandIsInvisible:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_run_read_early_and_a_run_read_late_are_the_same_run(self, shape, seed):
        early, late = (SimulationRunner(_config(seed, **SHAPES[shape])) for _ in range(2))
        assert early.trace.log.total_events() == 0  # read before run(): records as it happens
        early_result, late_result = early.run(), late.run()
        assert early_result.metrics_dict() == late_result.metrics_dict()
        assert early_result.recoveries == late_result.recoveries
        assert early_result.audits == late_result.audits
        assert early_result.all_audits_safe and early_result.all_audits_optimal
        state = _recorded_state(late)
        assert state == _recorded_state(early)
        assert state["messages"] and sum(state["taken"]) > 5


class TestTheLogIsBuiltAtTheFirstRead:
    def test_an_unread_run_builds_no_log_until_it_is_read(self, log_calls):
        eager = SimulationRunner(_config())
        eager.trace
        eager.run()
        expected = dict(log_calls)
        assert all(expected.values())

        log_calls.update(dict.fromkeys(LOG_BUILDERS, 0))
        runner = SimulationRunner(_config())
        result = runner.run()
        assert result.messages_sent > 0
        assert log_calls == dict.fromkeys(LOG_BUILDERS, 0)
        runner.trace
        assert log_calls == expected
        runner.trace  # applied once
        assert log_calls == expected

    def test_a_traced_run_nobody_reads_builds_no_log(self, log_calls, tmp_path):
        """The trace file is not a reader: it is written, the log is not built."""
        eager = SimulationRunner(_config(trace_path=str(tmp_path / "eager.jsonl")))
        eager.trace
        eager.run()
        expected = dict(log_calls)
        assert all(expected.values())

        log_calls.update(dict.fromkeys(LOG_BUILDERS, 0))
        runner = SimulationRunner(_config(trace_path=str(tmp_path / "unread.jsonl")))
        runner.run()
        assert log_calls == dict.fromkeys(LOG_BUILDERS, 0)
        written = (tmp_path / "unread.jsonl").read_bytes()
        assert written == (tmp_path / "eager.jsonl").read_bytes()
        runner.trace
        assert log_calls == expected

    def test_a_run_with_dynamic_membership_builds_no_log_before_its_first_join(
        self, log_calls
    ):
        """A join is a read: until the first one the run's log is not built."""
        overrides = {
            "membership": MembershipSchedule.of(joins=[(20.0, 4)], leaves=[(60.0, 1)])
        }
        eager = SimulationRunner(_config(**overrides))
        eager.trace
        eager.run()
        expected = dict(log_calls)

        log_calls.update(dict.fromkeys(LOG_BUILDERS, 0))
        runner = SimulationRunner(_config(**overrides))  # never read by the test
        seen = []
        for at in (19.9, 20.1):
            runner.engine.schedule_at(at, lambda: seen.append(sum(log_calls.values())))
        runner.run()
        before_the_join, after_the_join = seen
        assert before_the_join == 0 < after_the_join
        assert log_calls == expected and all(expected.values())

    def test_a_recovery_session_is_a_read(self, log_calls):
        runner = SimulationRunner(_config(failures=FailureSchedule.of([(45.0, 2)])))
        seen = []
        runner.engine.schedule_at(44.0, lambda: seen.append(sum(log_calls.values())))
        runner.engine.schedule_at(46.0, lambda: seen.append(sum(log_calls.values())))
        result = runner.run()
        assert len(result.recoveries) == 1
        before_the_crash, after_the_crash = seen
        assert before_the_crash == 0 < after_the_crash < sum(log_calls.values())


class TestAReferenceTakenEarlyIsNeverStale:
    def test_it_sees_every_occurrence_as_it_happens_and_an_unread_twin_sees_none(
        self, log_calls
    ):
        referenced, unread = (SimulationRunner(_config()) for _ in range(2))
        trace = referenced.trace
        assert isinstance(trace, TraceRecorder)
        mid_run = []
        referenced.engine.schedule_at(
            45.0, lambda: mid_run.append((sum(log_calls.values()), trace.log.total_events()))
        )
        referenced.run()
        ((built, visible),) = mid_run
        assert built == visible > 0
        assert trace is referenced.trace
        total = trace.log.total_events()
        assert total == sum(log_calls.values()) > visible

        log_calls.update(dict.fromkeys(LOG_BUILDERS, 0))
        unread.engine.schedule_at(45.0, lambda: mid_run.append(sum(log_calls.values())))
        unread.run()
        assert mid_run[-1] == 0 == sum(log_calls.values())
        assert unread.trace.log.total_events() == total

    def test_a_refused_kept_occurrence_is_raised_and_the_port_keeps_forwarding(
        self, monkeypatch
    ):
        """The recorder's own error, nothing dropped behind it, no second apply."""
        twin = SimulationRunner(_config())
        twin.run()
        expected = twin.trace

        class Refused(Exception):
            pass

        reached = {"record_send": 0, "record_receive": 0, "record_checkpoint": 0}
        refusal = Refused("the fortieth receive")

        def counting(name, method):
            def counted(recorder, *args, **kwargs):
                reached[name] += 1
                if name == "record_receive" and reached[name] == 40:
                    raise refusal
                return method(recorder, *args, **kwargs)

            return counted

        runner = SimulationRunner(_config())
        runner.run()
        for name in reached:
            monkeypatch.setattr(TraceRecorder, name, counting(name, getattr(TraceRecorder, name)))
        with pytest.raises(Refused) as raised:
            runner.trace
        assert raised.value is refusal
        # Every kept occurrence was offered to the recorder, the refused one included.
        messages = expected.log.messages()
        assert reached == {
            "record_send": len(messages),
            "record_receive": sum(message.delivered for message in messages),
            "record_checkpoint": sum(expected.checkpoints_taken),
        }
        recorder = runner.trace  # already forwarding: nothing is applied twice
        assert recorder.version == expected.version - 1
        assert recorder.checkpoints_taken == expected.checkpoints_taken
        undelivered = [m for m in recorder.log.messages() if not m.delivered]
        assert len(undelivered) == 1 + sum(not m.delivered for m in messages)
        # Later occurrences reach the recorder as they happen.
        index = runner.nodes[0].take_checkpoint()
        assert reached["record_checkpoint"] == sum(expected.checkpoints_taken) + 1
        assert recorder.checkpoints_taken[0] == index + 1


PARTITIONED = NetworkConfig(partitions=PartitionSchedule.of([(20.0, 50.0, ((0, 1),))]))

TRACED_SHAPES = {
    "failure-free": {},
    "crashes": {"failures": FailureSchedule.of([(20.0, 1), (41.5, 3), (70.0, 1)])},
    "full-audit": {"audit": "full"},
    "keep-final-ccp": {"keep_final_ccp": True},
    "lossy-duplicating": {"network": LOSSY_DUPLICATING},
    "partitioned": {"network": PARTITIONED},
}


class TestTheTraceFileIsTheSameWhoeverReads:
    """The writer is fed by the port until the first read, by the recorder after it.

    Where the switch happens — never, at a crash, at the final audit, at
    every elimination, at a few arbitrary instants — must not move a byte of
    the file.
    """

    @pytest.mark.parametrize("reader", ["unread", "read-mid-run", "read-at-every-elimination"])
    @pytest.mark.parametrize("shape", sorted(TRACED_SHAPES))
    def test_it_is_byte_identical_to_a_run_read_before_it_started(
        self, tmp_path, shape, reader
    ):
        def traced(name: str) -> SimulationConfig:
            return _config(trace_path=str(tmp_path / f"{name}.jsonl"), **TRACED_SHAPES[shape])

        reference = SimulationRunner(traced("reference"))
        reference.trace
        reference.run()
        runner = SimulationRunner(traced(reader))
        if reader == "read-mid-run":
            for at in (10.0, 10.0, 33.3, 60.0):
                runner.engine.schedule_at(at, lambda: runner.trace)
        eliminations = []
        if reader == "read-at-every-elimination":
            for node in runner.nodes:
                node.collector.attach_elimination_listener(
                    lambda index: eliminations.append(runner.current_ccp())
                )
        runner.run()
        assert bool(eliminations) == (reader == "read-at-every-elimination")

        path = str(tmp_path / f"{reader}.jsonl")
        expected = (tmp_path / "reference.jsonl").read_bytes()
        assert (tmp_path / f"{reader}.jsonl").read_bytes() == expected
        assert verify_trace(path) == []
        replayed = TraceReader(path).replay()
        assert replayed.status == "ok"
        # The file rebuilds the reference's recorder.
        assert replayed.recorder.version == reference.trace.version
        assert replayed.recorder.log.messages() == reference.trace.log.messages()

    def test_the_sink_is_attached_exactly_once(self, tmp_path, monkeypatch):
        """Attached at every read, each record after the first read would be written twice."""
        attached = []
        attach = TraceRecorder.attach_sink

        def counting(recorder, sink):
            attached.append((sink, runner.engine.now))
            attach(recorder, sink)

        monkeypatch.setattr(TraceRecorder, "attach_sink", counting)
        path = str(tmp_path / "t.jsonl")
        runner = SimulationRunner(
            _config(trace_path=path, audit="full", **TRACED_SHAPES["crashes"])
        )
        for at in (5.0, 30.0, 30.0, 80.0):
            runner.engine.schedule_at(at, lambda: runner.trace)
        runner.run()
        runner.trace, runner.current_ccp()
        ((sink, when),) = attached
        assert isinstance(sink, TraceWriter) and 0.0 < when <= 5.0
        assert verify_trace(path) == []

    def test_a_refusal_surfacing_at_the_first_read_seals_the_trace_aborted(
        self, tmp_path, monkeypatch
    ):
        """The port wrote the refused occurrence already; the run still fails, and says so."""
        receives = [0]
        record_receive = TraceRecorder.record_receive

        def refusing(recorder, message_id, time):
            receives[0] += 1
            if receives[0] == 40:
                raise ValueError("the fortieth receive")
            record_receive(recorder, message_id, time)

        monkeypatch.setattr(TraceRecorder, "record_receive", refusing)
        path = str(tmp_path / "t.jsonl")
        runner = SimulationRunner(_config(trace_path=path, **TRACED_SHAPES["crashes"]))
        with pytest.raises(ValueError, match="fortieth receive"):
            runner.run()
        assert runner.engine.now == 20.0  # the first crash was the first read
        replayed = TraceReader(path).replay()
        assert replayed.status == "aborted"
        assert replayed.footer["error"] == "ValueError: the fortieth receive"


SMOKE_CELLS = membership_churn_smoke_spec().cells()
PIDS = st.sampled_from(range(SMOKE_CELLS[0].num_processes))
TIMES = st.integers(min_value=0, max_value=395).map(lambda tenths: tenths / 10)


@st.composite
def churn_configs(draw) -> SimulationConfig:
    """A membership-churn smoke cell with its joins, leaves and crashes redrawn."""
    joins = draw(st.dictionaries(PIDS, TIMES, max_size=3))
    leaves = draw(st.dictionaries(PIDS, TIMES, max_size=2))
    try:
        membership = MembershipSchedule.of(
            joins=[(time, pid) for pid, time in joins.items()],
            leaves=[(time, pid) for pid, time in leaves.items()],
        )
    except MembershipError:
        reject()
    return dataclasses.replace(
        draw(st.sampled_from(SMOKE_CELLS)).config(),
        membership=membership,
        failures=FailureSchedule.of(draw(st.lists(st.tuples(TIMES, PIDS), max_size=2))),
        audit=draw(st.sampled_from(["off", "full"])),
    )


class TestAMembershipRunTakesThePort:
    """Which occurrence would the recorder refuse that the node lets through?

    Before the first join or leave only the initial members act: a workload
    action fires only when every pid it touches is a member, a crashed or
    departed node records nothing, and a leaver's messages are dropped in
    flight.  A run read before ``run()`` validates every occurrence at the
    call, so a non-member's event the node let through would raise there;
    the unread twin must be the same run.
    """

    @staticmethod
    def _observed(config: SimulationConfig, directory: Path, *, read_first: bool):
        path = directory / ("eager" if read_first else "unread")
        runner = SimulationRunner(dataclasses.replace(config, trace_path=str(path)))
        if read_first:
            runner.trace
        result = runner.run()
        log = runner.trace.log
        return {
            "trace": path.read_bytes(),
            "metrics": result.metrics_dict(),
            "recoveries": result.recoveries,
            "audits": result.audits,
            "events": [tuple(log.history(pid)) for pid in log.processes],
        }

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(config=churn_configs())
    def test_an_unread_run_is_the_run_read_before_it_started(self, config):
        with tempfile.TemporaryDirectory() as directory:
            eager = self._observed(config, Path(directory), read_first=True)
            assert self._observed(config, Path(directory), read_first=False) == eager
        assert all(audit.is_safe for audit in eager["audits"])


class TestOutOfRangeDestination:
    @pytest.mark.parametrize("destination", [7, 3, -1])
    def test_it_is_refused_before_anything_reaches_the_network(self, destination):
        config = _config(num_processes=3, duration=40.0)
        runner, untouched = SimulationRunner(config), SimulationRunner(config)
        for node in runner.nodes:
            node.start()
        pending = runner.engine.pending_events()
        with pytest.raises(ValueError) as refused:
            runner.nodes[0].send_message(destination)
        assert runner.network.stats == NetworkStats()
        assert runner.engine.pending_events() == pending  # no copy in flight
        assert runner.nodes[0].messages_sent == 0
        assert not runner.trace.log.messages()
        assert re.search(rf"process {destination}\b.* 3 processes", str(refused.value))
        # Neither a fate drawn nor the protocol told of a send: a legal send
        # afterwards is the send of a process that never tried.
        for each in untouched.nodes:
            each.start()
        for each in (runner, untouched):
            each.nodes[0].send_message(1)
            each.engine.run()
        assert runner.network.stats == untouched.network.stats
        assert runner.engine.now == untouched.engine.now
        assert [node.forced_checkpoints for node in runner.nodes] == [
            node.forced_checkpoints for node in untouched.nodes
        ]
