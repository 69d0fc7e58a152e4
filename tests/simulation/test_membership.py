"""Dynamic membership: join/leave through the whole stack.

Covers the membership event model (schedules, specs, the mutable view),
the runner semantics (dormant joiners, permanent departure, crashes
interleaved with membership churn), the obsolescence consequence the paper's
theory dictates — a departed process's checkpoints are garbage everywhere —
and the v2 trace extension (``j``/``l`` records, membership header,
backward compatibility of membership-free traces).
"""

import pytest

from repro.ccp.incremental import CheckpointKnowledgeTracker
from repro.membership import (
    MembershipError,
    MembershipSchedule,
    MembershipView,
)
from repro.simulation.channels import LatencyMatrixChannel
from repro.simulation.engine import SimulationEngine
from repro.simulation.failures import FailureSchedule
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.runner import (
    SimulationConfig,
    SimulationRunner,
    run_simulation,
)
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload
from repro.traceio.format import TraceFormatError
from repro.traceio.reader import TraceReader, verify_trace
from repro.traceio.writer import TraceWriter


def _dynamic_config(**overrides) -> SimulationConfig:
    """The acceptance shape: capacity 5, pid 4 joins at 20, pid 1 leaves at 60."""
    defaults = dict(
        num_processes=5,
        duration=100.0,
        workload=UniformRandomWorkload(mean_message_gap=2.0, mean_checkpoint_gap=8.0),
        collector="rdt-lgc",
        seed=7,
        audit="full",
        membership=MembershipSchedule.of(joins=[(20.0, 4)], leaves=[(60.0, 1)]),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestMembershipSchedule:
    def test_static_is_falsy_and_every_pid_is_initial(self):
        schedule = MembershipSchedule.static()
        assert not schedule
        assert schedule.initial_members(3) == frozenset({0, 1, 2})

    def test_joiners_are_dormant_at_start(self):
        schedule = MembershipSchedule.of(joins=[(10.0, 2)])
        assert schedule.initial_members(3) == frozenset({0, 1})
        assert schedule.joining_pids == frozenset({2})

    def test_duplicate_events_rejected(self):
        with pytest.raises(MembershipError, match="more than one join"):
            MembershipSchedule.of(joins=[(1.0, 0), (2.0, 0)])
        with pytest.raises(MembershipError, match="more than one leave"):
            MembershipSchedule.of(leaves=[(1.0, 0), (2.0, 0)])

    def test_leave_before_join_rejected(self):
        with pytest.raises(MembershipError, match="leaves at 5.0"):
            MembershipSchedule.of(joins=[(10.0, 1)], leaves=[(5.0, 1)])

    def test_capacity_validation_names_pid(self):
        schedule = MembershipSchedule.of(joins=[(10.0, 7)])
        with pytest.raises(MembershipError, match="process 7.*only 4 processes"):
            schedule.validate_for(4)

    def test_describe_round_trips(self):
        schedule = MembershipSchedule.of(joins=[(20.0, 4)], leaves=[(60.0, 1)])
        assert MembershipSchedule.from_description(schedule.describe()) == schedule

    def test_spec_label_is_deterministic(self):
        spec = MembershipSchedule.of(joins=[(20.0, 4)], leaves=[(60.0, 1)])
        assert spec.label() == "membership(join=4@20.0,leave=1@60.0)"
        assert spec
        assert not MembershipSchedule.static()


class TestMembershipView:
    def test_join_leave_lifecycle(self):
        view = MembershipView(3, frozenset({0, 1}))
        assert view.dormant == frozenset({2})
        view.join(2)
        assert view.members == frozenset({0, 1, 2})
        view.leave(1)
        assert view.departed == frozenset({1})
        assert not view.is_member(1)

    def test_double_join_and_departed_rejoin_rejected(self):
        view = MembershipView(2)
        with pytest.raises(MembershipError):
            view.join(0)  # already a member
        view.leave(0)
        with pytest.raises(MembershipError):
            view.join(0)  # departure is permanent

    def test_leave_of_dormant_pid_rejected(self):
        view = MembershipView(2, frozenset({0}))
        with pytest.raises(MembershipError):
            view.leave(1)


class TestRunnerMembership:
    def test_acceptance_join_and_leave_end_to_end(self, tmp_path):
        """The feature's acceptance cell: one join, one leave, full audits,
        a replay-verified trace, and zero checkpoints of the departed pid."""
        path = str(tmp_path / "churn.trace.jsonl")
        config = _dynamic_config(trace_path=path)
        runner = SimulationRunner(config)
        result = runner.run()
        assert result.all_audits_safe and result.all_audits_optimal
        # Every checkpoint of the departed process is garbage by run end.
        assert result.retained_final[1] == 0
        # The joiner participated: it stored s_4^0 at join time.
        assert result.retained_final[4] >= 1
        assert verify_trace(path) == []
        replayed = TraceReader(path).replay()
        assert replayed.recorder.membership.members == frozenset({0, 2, 3, 4})
        assert replayed.recorder.departed == frozenset({1})
        assert replayed.recorder.ccp().departed == frozenset({1})

    def test_departed_garbage_differential_across_collectors(self):
        """Every study collector eliminates the departed pid's checkpoints."""
        from repro.scenarios.experiments import STUDY_COLLECTORS

        for name, options in STUDY_COLLECTORS:
            config = _dynamic_config(
                collector=name, collector_options=dict(options), audit="safety"
            )
            result = run_simulation(config)
            assert result.retained_final[1] == 0, (
                f"collector {name!r} kept {result.retained_final[1]} "
                f"checkpoint(s) of the departed process"
            )
            assert result.all_audits_safe, f"collector {name!r} went unsafe"

    def test_crash_interleaved_with_membership_churn(self):
        """Crashes before the leave, after the join, and of the departed pid."""
        config = _dynamic_config(
            failures=FailureSchedule.of([(40.0, 1), (50.0, 4), (80.0, 1)]),
        )
        result = run_simulation(config)
        assert result.all_audits_safe and result.all_audits_optimal
        # The 80.0 crash names the departed pid 1: silently skipped.
        assert len(result.recoveries) == 2
        assert result.retained_final[1] == 0

    def test_join_at_recovery_instant(self):
        """A join scheduled at the same instant as a crash's recovery session."""
        config = _dynamic_config(
            failures=FailureSchedule.of([(20.0, 0)]),
        )
        result = run_simulation(config)
        assert result.all_audits_safe and result.all_audits_optimal
        assert len(result.recoveries) == 1

    def test_leave_with_undelivered_messages_in_flight(self):
        """Messages to/from the leaver still in flight are discarded, and the
        run stays analysable (the receives simply never happen)."""
        # Every link to/from pid 1 is 30x slow, so traffic touching the
        # leaver is almost surely in flight at its departure time.
        matrix = [
            [30.0 if 1 in (a, b) and a != b else 1.0 for b in range(5)]
            for a in range(5)
        ]
        config = _dynamic_config(
            network=NetworkConfig(channel=LatencyMatrixChannel.of(matrix)),
        )
        result = run_simulation(config)
        assert result.all_audits_safe and result.all_audits_optimal
        assert result.retained_final[1] == 0

    def test_single_process_degenerate_run(self):
        """num_processes=1: no peers, no messages — the grid's smallest cell."""
        config = SimulationConfig(
            num_processes=1,
            duration=30.0,
            workload=UniformRandomWorkload(mean_checkpoint_gap=5.0),
            audit="full",
            seed=1,
        )
        result = run_simulation(config)
        assert result.messages_sent == 0
        assert result.basic_checkpoints >= 2
        assert result.all_audits_safe and result.all_audits_optimal

    def test_dynamic_membership_rejected_on_live_backend(self):
        with pytest.raises(ValueError, match="'sim' backend only"):
            _dynamic_config(backend="live")

    def test_membership_event_outside_duration_rejected(self):
        with pytest.raises(ValueError, match="outside the run duration"):
            _dynamic_config(duration=50.0)

    def test_view_matches_literal_under_churn(
        self, assert_view_matches_literal, literal_check_sink
    ):
        """The knowledge-vector substrate must match the literal theorems
        across joins (a dormant slot coming alive), leaves (departed exclusion) and a
        recovery session in between."""
        config = _dynamic_config(failures=FailureSchedule.of([(40.0, 2)]))
        runner = SimulationRunner(config)
        sink = literal_check_sink(runner.trace)  # after the join, the crash, the leave
        times = [config.duration * fraction for fraction in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for time in times:
            runner.engine.schedule_at(
                time, lambda: assert_view_matches_literal(runner.trace)
            )
        result = runner.run()
        assert sink.checked == 3 and len(result.recoveries) == 1
        assert result.all_audits_safe and result.all_audits_optimal
        assert_view_matches_literal(runner.trace)


class TestNetworkDeparture:
    def test_drop_in_flight_for_reclaims_custody_copies(self):
        """Controller-held (custody) copies touching the leaver are reclaimed."""

        class RecordingController:
            def __init__(self):
                self.in_custody = []
                self.discarded = []

            def on_copy_in_flight(self, delivery_id, message, delivery_time):
                self.in_custody.append(delivery_id)

            def on_copies_discarded(self, delivery_ids):
                self.discarded.extend(delivery_ids)

        engine = SimulationEngine(seed=1)
        network = Network(engine, NetworkConfig(base_latency=5.0, jitter=0.0))
        controller = RecordingController()
        network.attach_controller(controller)
        network.on_app_delivery(lambda m: None)
        network.send_app_message(0, 1, (0, 0))  # to the leaver
        network.send_app_message(1, 2, (0, 0))  # from the leaver
        network.send_app_message(2, 3, (0, 0))  # unrelated
        dropped = network.drop_in_flight_for(1)
        assert dropped == 2
        assert sorted(controller.discarded) == sorted(controller.in_custody[:2])
        assert network.stats.app_discarded_by_departure == 2
        assert network.in_flight_count() == 1


class TestRecorderMembership:
    def test_events_from_non_members_rejected(self):
        recorder = TraceRecorder(3, initial_members=frozenset({0, 1}))
        with pytest.raises(MembershipError, match="dormant"):
            recorder.record_checkpoint(2, 0, (0, -1, -1), forced=False, time=1.0)
        recorder.record_join(2, 5.0)
        recorder.record_checkpoint(2, 0, (-1, -1, 0), forced=False, time=5.0)
        recorder.record_leave(2, 9.0)
        with pytest.raises(MembershipError, match="departed"):
            recorder.record_send(2, 0, 0, 10.0)

    def test_a_refused_join_leaves_the_capacity_alone(self):
        recorder = TraceRecorder(3, initial_members=frozenset({0, 1}))
        recorder.record_checkpoint(0, 0, (0, -1, -1), forced=False, time=0.0)
        recorder.record_checkpoint(1, 0, (-1, 0, -1), forced=False, time=0.0)
        with pytest.raises(MembershipError, match="process 3 is outside the run's capacity of 3"):
            recorder.record_join(3, 5.0)
        assert recorder.num_processes == recorder.membership.num_processes == 3
        assert recorder.version == 2 and recorder.membership.dormant == frozenset({2})
        recorder.record_join(2, 5.0)  # the dormant slot is what a join is for
        recorder.record_checkpoint(2, 0, (-1, -1, 0), forced=False, time=5.0)
        assert recorder.ccp().num_processes == 3


def _replay_with_join_of(pid: int, tmp_path) -> None:
    """Replay the acceptance trace with its ``j`` record rewritten to ``pid``."""
    path = tmp_path / "garbled.trace.jsonl"
    run_simulation(_dynamic_config(trace_path=str(path), audit="off"))
    lines = path.read_text().splitlines()
    number = lines.index('["j",4,20.0]') + 1
    lines[number - 1] = f'["j",{pid},20.0]'
    path.write_text("\n".join(lines) + "\n")
    try:
        TraceReader(str(path)).replay()
    except TraceFormatError as exc:
        # Refused on the join's own line, not where a later record trips over it.
        assert f"garbled.trace.jsonl:{number}: " in str(exc)
        raise


class TestBeyondTheCapacityFailsTyped:
    """The capacity is the process set: no layer grows, every layer refuses."""

    @pytest.mark.parametrize(
        "attempt, error, message",
        [
            pytest.param(
                lambda pid, tmp_path: MembershipView(5, frozenset(range(4))).join(pid),
                MembershipError,
                "^process 9 is outside the run's capacity of 5 processes",
                id="MembershipView.join",
            ),
            pytest.param(
                lambda pid, tmp_path: TraceRecorder(5, initial_members=range(4)).record_join(pid, 20.0),
                MembershipError,
                "^process 9 is outside the run's capacity of 5 processes",
                id="TraceRecorder.record_join",
            ),
            pytest.param(
                # Regression: fixed n-by-n matrices used to fail with IndexError.
                lambda pid, tmp_path: CheckpointKnowledgeTracker(5).note_send(0, sender=pid),
                MembershipError,
                "^process 9 is outside the tracked capacity of 5 processes",
                id="CheckpointKnowledgeTracker.note_send",
            ),
            pytest.param(
                _replay_with_join_of,
                TraceFormatError,
                r"MembershipError: process 9 is outside the run's capacity of 5 processes",
                id="replayed-garbled-trace",
            ),
        ],
    )
    def test_pid_9_of_5(self, attempt, error, message, tmp_path):
        with pytest.raises(error, match=message):
            attempt(9, tmp_path)


class TestTraceMembershipRecords:
    def test_membership_free_trace_has_no_membership_header(self, tmp_path):
        """Static runs keep their exact pre-membership artifact shape."""
        path = str(tmp_path / "static.trace.jsonl")
        config = SimulationConfig(
            num_processes=3,
            duration=30.0,
            workload=UniformRandomWorkload(),
            seed=2,
            trace_path=path,
        )
        run_simulation(config)
        replayed = TraceReader(path).replay()
        assert "membership" not in replayed.header
        assert replayed.recorder.departed == frozenset()
        assert verify_trace(path) == []

    def test_join_leave_records_round_trip(self, tmp_path):
        path = str(tmp_path / "churn.trace.jsonl")
        config = _dynamic_config(trace_path=path, audit="off")
        run_simulation(config)
        tags = []
        import json

        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        tags = [record[0] for record in lines[1:] if isinstance(record, list)]
        assert "j" in tags and "l" in tags
        header = lines[0]
        assert ["join", 4, 20.0] in header["membership"]
        assert ["leave", 1, 60.0] in header["membership"]
        replayed = TraceReader(path).replay()
        assert replayed.recorder.departed == frozenset({1})

    def test_header_is_checked_against_its_own_capacity(self, tmp_path):
        path = tmp_path / "churn.trace.jsonl"
        run_simulation(_dynamic_config(trace_path=str(path), audit="off"))
        text = path.read_text()
        assert text.count('["join",4,20.0]') == 1
        path.write_text(text.replace('["join",4,20.0]', '["join",9,20.0]'))
        with pytest.raises(
            TraceFormatError, match="header membership: .*names process 9 .*only 5 processes"
        ):
            TraceReader(str(path)).replay()
