"""Delta-maintained analyses vs full recompute and the literal theorems.

Property corpus for the incremental subsystem: a
:class:`~repro.simulation.trace.TraceRecorder` fed an execution in chunks
must answer every analysis — Theorem-1/2 retained sets, Lemma-1 recovery
lines, the zigzag relation — exactly as a recorder fed the same history in
one go and read only at the end does, and exactly as the literal theorems do
(the ``assert_view_matches_literal`` fixture), at every instant, including
right after recovery truncations and while rolled-back checkpoint indices
are reused.  The blocked bitset kernel is pinned to the brute-force
reference on histories a recovery truncated.  The recorder keeps no message
table of its own: its CCP's messages are the log's, through recoveries and
late receives alike.

Simulation-level churn is covered by running the same seeded simulation
twice — read at every elimination and unread until its crashes — and
comparing final analyses, plus replay-verifying the persisted trace of a
churn run.
"""

import pytest

from repro.causality.events import (
    E_KIND,
    INTERNAL,
    M_ID,
    M_RECEIVE_SEQ,
    M_RECEIVER,
    EventId,
    EventKind,
    Message,
)
from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import GlobalCheckpoint
from repro.ccp.zigzag import BruteForceZigzagAnalysis, ZigzagAnalysis
from repro.recovery.manager import RecoveryManager
from repro.recovery.rollback_plan import ProcessRollback, RollbackPlan
from repro.scenarios.random_patterns import TraceFeeder, random_ccp_script
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload

SEEDS = list(range(40))


def _script(seed: int):
    return random_ccp_script(
        seed,
        num_processes=2 + seed % 5,
        num_messages=25 + (seed * 7) % 40,
        checkpoint_rate=0.15 + 0.04 * (seed % 6),
        undelivered_fraction=0.15,
    )


def _chunks(script, parts=5):
    size = max(1, len(script) // parts)
    for start in range(0, len(script), size):
        yield script[start : start + size]


RECOVERY_AFTER = 2


def _plan_at_recovery(seed: int):
    """The rollback plan the corpus applies after chunk :data:`RECOVERY_AFTER`."""
    num_processes = 2 + seed % 5
    recorder = TraceRecorder(num_processes)
    feeder = TraceFeeder(recorder)
    for part, chunk in enumerate(_chunks(_script(seed))):
        feeder.feed(chunk)
        if part == RECOVERY_AFTER:
            return RecoveryManager().plan(recorder.knowledge_view(), [seed % num_processes])
    return None


def _fed(seed: int, plan, upto: int, *, read=lambda recorder: None):
    """Chunks ``0..upto`` of the seed's script, ``plan`` applied after chunk
    :data:`RECOVERY_AFTER`, and ``read`` called after every chunk."""
    recorder = TraceRecorder(2 + seed % 5)
    feeder = TraceFeeder(recorder)
    for part, chunk in enumerate(_chunks(_script(seed))):
        if part > upto:
            break
        feeder.feed(chunk)
        if part == RECOVERY_AFTER and plan is not None:
            recorder.apply_recovery(plan)
            feeder.resync()
        read(recorder)
    return recorder


def _all_ids(recorder: TraceRecorder):
    return [
        CheckpointId(pid, index)
        for pid in range(recorder.num_processes)
        for index in range(recorder.checkpoints_taken[pid] + 1)
    ]


def _answers(recorder: TraceRecorder):
    """Theorem-1/2 retained sets and every single-fault recovery line, now."""
    view = recorder.ccp().analysis_provider
    return (
        view.theorem1_retained(),
        view.theorem2_retained(),
        [view.recovery_line({faulty}) for faulty in range(recorder.num_processes)],
    )


class TestIncrementalEqualsFullRecompute:
    """A recorder read after every chunk vs one fed the same history and read once."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_analyses_agree_at_every_instant(self, seed):
        plan = _plan_at_recovery(seed)
        instants = []
        _fed(seed, plan, len(_script(seed)), read=lambda r: instants.append(_answers(r)))
        assert len(instants) == len(list(_chunks(_script(seed))))
        for upto, tracked in enumerate(instants):
            assert tracked == _answers(_fed(seed, plan, upto)), f"seed {seed}, chunk {upto}"

    @pytest.mark.parametrize("seed", SEEDS[::4])
    def test_zigzag_relation_exact_at_every_instant(self, seed):
        def check(recorder):
            zigzag = recorder.ccp().zigzag
            brute = BruteForceZigzagAnalysis(recorder.ccp())
            ids = _all_ids(recorder)
            related = set()
            for a in ids:
                for b in ids:
                    exists = zigzag.zigzag_exists(a, b)
                    assert exists == brute.zigzag_exists(a, b), f"seed {seed}: {a} ~> {b}"
                    if exists:
                        related.add((a, b))
            assert set(zigzag.zigzag_pairs()) == related
            checked.append(recorder.version)

        checked = []
        _fed(seed, _plan_at_recovery(seed), len(_script(seed)), read=check)
        assert len(checked) == len(list(_chunks(_script(seed))))


class TestViewMatchesLiteral:
    """The recorder's view equals the literal theorems at every instant."""

    @pytest.mark.parametrize("seed", SEEDS[::3])
    def test_chunked_feed_with_queries(self, seed, assert_view_matches_literal):
        script = _script(seed)
        recorder = TraceRecorder(2 + seed % 5)
        feeder = TraceFeeder(recorder)
        for chunk in _chunks(script):
            feeder.feed(chunk)
            assert_view_matches_literal(recorder)


class TestKernelBackend:
    def test_there_is_no_backend_to_select(self):
        recorder = TraceRecorder(2 + SEEDS[0] % 5)
        TraceFeeder(recorder).feed(_script(SEEDS[0]))
        ccp = recorder.ccp()
        with pytest.raises(TypeError):
            ZigzagAnalysis(ccp, kernel="numpy")
        assert not hasattr(ZigzagAnalysis(ccp), "kernel")


class TestKernelAcrossRecovery:
    """Blocked kernel vs brute force on histories a recovery truncated."""

    @pytest.mark.parametrize("seed", SEEDS[::4])
    def test_bigint_kernel_matches_brute_force(self, seed):
        ccp = _fed(seed, _plan_at_recovery(seed), len(_script(seed))).ccp()
        kernel = ZigzagAnalysis(ccp)
        brute = BruteForceZigzagAnalysis(ccp)
        assert set(kernel.zigzag_pairs()) == set(brute.zigzag_pairs())
        assert kernel.useless_checkpoints() == brute.useless_checkpoints()


def _churn_config(seed, crashes, **overrides) -> SimulationConfig:
    fields = dict(
        num_processes=4,
        duration=150.0,
        workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
        failures=FailureSchedule.of(crashes),
        seed=seed,
        audit="full",
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


class TestChurnSchedules:
    """Crash/recovery churn: truncation rebuilds + index reuse."""

    @pytest.mark.parametrize("seed", range(6))
    def test_a_run_read_at_every_elimination_matches_its_unread_twin(self, seed):
        crashes = [(50.0, seed % 4), (100.0, (seed + 2) % 4)]
        read = SimulationRunner(_churn_config(seed, crashes))
        reads = []
        for node in read.nodes:
            node.collector.attach_elimination_listener(
                lambda index: reads.append(read.trace.knowledge_view().theorem1_retained())
            )
        read_result = read.run()
        unread = SimulationRunner(_churn_config(seed, crashes, audit="off"))
        unread_result = unread.run()
        assert reads and len(read_result.recoveries) == 2
        # The simulation itself is deterministic in the seed: who reads the
        # recorder, and when, must not leak into execution.
        assert [r.recovery_line for r in read_result.recoveries] == [
            r.recovery_line for r in unread_result.recoveries
        ]
        assert [node.storage.retained_indices() for node in read.nodes] == [
            node.storage.retained_indices() for node in unread.nodes
        ]
        assert read_result.all_audits_safe and read_result.all_audits_optimal
        tracked = read.trace.knowledge_view()
        truth = unread.trace.knowledge_view()
        assert tracked.theorem1_retained() == truth.theorem1_retained()
        assert tracked.theorem2_retained() == truth.theorem2_retained()
        for faulty in range(4):
            assert tracked.recovery_line({faulty}) == truth.recovery_line({faulty})

    @pytest.mark.parametrize("seed", range(4))
    def test_view_matches_literal_across_recovery_truncation(
        self, seed, assert_view_matches_literal, literal_check_sink
    ):
        crashes = [(60.0, seed % 4), (110.0, (seed + 1) % 4)]
        sinks, between = [], []

        def schedule_checks(runner):
            # Right after each session (the sink), and while the rolled-back
            # checkpoint indices are being reused.
            sinks.append(literal_check_sink(runner.trace))
            for time in (59.9, 65.0, 75.0, 109.9, 115.0, 125.0):
                runner.engine.schedule_at(
                    time,
                    lambda: between.append(assert_view_matches_literal(runner.trace)),
                )

        runner = SimulationRunner(_churn_config(seed, crashes))
        schedule_checks(runner)
        result = runner.run()
        assert len(result.recoveries) == 2 and sinks[0].checked == 2
        assert len(between) == 6 and result.all_audits_safe
        assert_view_matches_literal(runner.trace)

    def test_churn_run_trace_replays_and_verifies(self, tmp_path):
        """Sinks see the full history: a run with recoveries persists a complete trace."""
        from repro.traceio.cli import main as traceio_main

        path = str(tmp_path / "churn_run.trace.jsonl")
        runner = SimulationRunner(
            _churn_config(3, [(60.0, 1)], duration=120.0, trace_path=path)
        )
        result = runner.run()
        assert result.recoveries
        assert traceio_main(["replay", path, "--verify"]) == 0


def _messages_from_events(log):
    """Brute force: the delivered messages and their intervals, from the events alone."""
    sends, receives = {}, {}
    for pid in log.processes:
        interval = 0
        for _, seq, kind, message_id, index, _, _ in log.history(pid).events:
            if kind == EventKind.CHECKPOINT:
                interval = index + 1
            elif kind == EventKind.SEND:
                sends[message_id] = (pid, seq, interval)
            elif kind == EventKind.RECEIVE:
                receives[message_id] = (pid, seq, interval)
    messages = []
    for message_id in sorted(receives):
        sender, send_seq, send_interval = sends[message_id]  # no receive without its send
        receiver, receive_seq, receive_interval = receives[message_id]
        messages.append(
            Message(
                message_id, sender, receiver, send_seq, send_interval, receive_seq, receive_interval
            )
        )
    return messages


def _receive_event(message):
    return EventId(message[M_RECEIVER], message[M_RECEIVE_SEQ])


def _assert_late_receive_accepted_once(recorder, message_id):
    assert recorder.log.message(message_id)[M_RECEIVE_SEQ] < 0
    recorder.record_receive(message_id, 10_000.0)
    assert recorder.log.message(message_id)[M_RECEIVE_SEQ] >= 0
    for _ in range(2):
        with pytest.raises(ValueError, match="already received"):
            recorder.record_receive(message_id, 10_001.0)


class TestRecorderReadsTheLog:
    """The recorder keeps no message table: its CCP's messages are the log's."""

    def test_recovery_repairs_both_ends_of_a_message(self):
        recorder = TraceRecorder(3)
        feeder = TraceFeeder(recorder)
        feeder.feed(
            [
                ("send", 0, 1, 0),  # send kept, receive discarded: pending again
                ("receive", 0),
                ("checkpoint", 1),
                ("send", 1, 2, 1),  # send discarded, receive kept: a placeholder
                ("receive", 1),
                ("send", 2, 0, 2),  # untouched
                ("receive", 2),
                ("send", 1, 0, 3),  # in transit, send discarded
            ]
        )
        assert [m[M_ID] for m in recorder.ccp().messages()] == [0, 1, 2]
        receive_of_1 = _receive_event(recorder.log.message(1))
        recorder.apply_recovery(
            RollbackPlan(
                faulty=(1,),
                recovery_line=GlobalCheckpoint((1, 0, 1)),
                rollbacks=(ProcessRollback(1, 0),),
                last_interval_vector=(1, 1, 1),
            )
        )
        log = recorder.log
        assert recorder.ccp().messages() == _messages_from_events(log) == [log.message(2)]
        assert log.has_message(0) and not log.has_message(1) and not log.has_message(3)
        assert log.event(receive_of_1)[E_KIND] == INTERNAL
        recorder.record_receive(1, 9_000.0)  # its send was rolled back: ignored
        assert log.event(receive_of_1)[E_KIND] == INTERNAL and not log.has_message(1)
        _assert_late_receive_accepted_once(recorder, 0)
        assert log.message(0) == Message(0, 0, 1, 1, 1, receive_seq=1, receive_interval=1)
        assert recorder.ccp().messages() == _messages_from_events(log)
        assert [m[M_ID] for m in recorder.ccp().messages()] == [0, 2]

    def test_a_placeholder_receive_takes_what_it_merged_with_it(
        self, assert_view_matches_literal
    ):
        """A kept receive whose send a recovery discards teaches nothing any more."""
        recorder = TraceRecorder(3)
        feeder = TraceFeeder(recorder)
        feeder.feed(
            [
                ("checkpoint", 1),
                ("send", 1, 2, 0),  # its send is rolled back, its receive kept
                ("receive", 0),
                ("checkpoint", 2),
                ("send", 2, 0, 1),  # passes on what message 0 taught
                ("receive", 1),
                ("checkpoint", 0),
            ]
        )
        assert_view_matches_literal(recorder)  # the tracker exists from here on
        assert recorder.knowledge_view().precedes(CheckpointId(1, 1), CheckpointId(0, 1))
        receive_of_0 = _receive_event(recorder.log.message(0))
        recorder.apply_recovery(
            RollbackPlan(
                faulty=(1,),
                recovery_line=GlobalCheckpoint((2, 1, 2)),
                rollbacks=(ProcessRollback(1, 0),),
                last_interval_vector=(2, 1, 2),
            )
        )
        log = recorder.log
        assert log.event(receive_of_0)[E_KIND] == INTERNAL and not log.has_message(0)
        assert_view_matches_literal(recorder)
        view = recorder.knowledge_view()
        assert not view.precedes(CheckpointId(1, 0), CheckpointId(0, 1))
        assert view.precedes(CheckpointId(2, 1), CheckpointId(0, 1))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_messages_equal_the_events_under_churn(self, seed):
        script = _script(seed)
        num_processes = 2 + seed % 5
        recorder = TraceRecorder(num_processes)
        feeder = TraceFeeder(recorder)
        for part, chunk in enumerate(_chunks(script)):
            feeder.feed(chunk)
            assert recorder.ccp().messages() == _messages_from_events(recorder.log)
            if part == 2:
                delivered = {m[M_ID] for m in recorder.log.delivered_messages()}
                plan = RecoveryManager().plan(recorder.knowledge_view(), [seed % num_processes])
                recorder.apply_recovery(plan)
                feeder.resync()
                assert recorder.ccp().messages() == _messages_from_events(recorder.log)
                for message in recorder.log.messages():
                    if message[M_ID] in delivered and message[M_RECEIVE_SEQ] < 0:
                        _assert_late_receive_accepted_once(recorder, message[M_ID])
                assert recorder.ccp().messages() == _messages_from_events(recorder.log)


class TestFeederResync:
    def test_resync_follows_recorder_frontier(self):
        recorder = TraceRecorder(2)
        feeder = TraceFeeder(recorder)
        feeder.feed([("checkpoint", 0), ("checkpoint", 0)])
        assert recorder.checkpoints_taken == (3, 1)
        feeder.resync()
        feeder.feed([("checkpoint", 0)])
        assert recorder.checkpoints_taken == (4, 1)
