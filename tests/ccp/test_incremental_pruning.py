"""Delta-maintained analyses and obsolescence pruning vs full recompute.

Property corpus for the incremental subsystem: a
:class:`~repro.simulation.trace.TraceRecorder` fed an execution in chunks —
and, between chunks, the eliminations that let it compact its log — must
answer every analysis — Theorem-1/2 retained sets, Lemma-1 recovery
lines, the zigzag relation — exactly as an identically-fed unpruned twin
does over the surviving (live) checkpoint window, at every instant of the
churn schedule.  Unpruned recorders are diffed against the literal theorems
(the ``assert_view_matches_literal`` fixture); the blocked bitset kernel is additionally pinned
to the brute-force reference on *pruned* (based) logs, where closures start
at per-process base intervals rather than zero.

Simulation-level churn (crashes, recovery truncation, index reuse, pruning
interleaved with rollback-driven eliminations) is covered by running the
same seeded simulation twice — pruned and unpruned — and comparing final
analyses, plus replay-verifying the persisted trace of a pruned run, which
must remain a complete, faithful artifact (pruning is invisible to sinks).
"""

import pytest

from repro.causality.events import EventKind, Message
from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import GlobalCheckpoint
from repro.ccp.zigzag import BruteForceZigzagAnalysis, ZigzagAnalysis
from repro.recovery.manager import RecoveryManager
from repro.recovery.rollback_plan import ProcessRollback, RollbackPlan
from repro.scenarios.random_patterns import TraceFeeder, random_ccp_script
from repro.simulation import trace as trace_module
from repro.simulation.runner import SimulationRunner
from repro.simulation.trace import TraceRecorder

SEEDS = list(range(40))


@pytest.fixture
def low_prune_threshold(monkeypatch):
    """A compaction hysteresis the corpus scripts are long enough to cross."""
    monkeypatch.setattr(trace_module, "PRUNE_THRESHOLD", 8)


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


def _eliminate_theorem1_garbage(recorder: TraceRecorder) -> None:
    """The churn driver: report everything Theorem 1 proves obsolete."""
    ccp = recorder.ccp()
    retained = ccp.analyses.theorem1_retained
    for pid in range(recorder.num_processes):
        for index in range(ccp.base_interval(pid), recorder.checkpoints_taken[pid] - 1):
            if CheckpointId(pid, index) not in retained:
                recorder.record_elimination(pid, index)


def _live_ids(recorder: TraceRecorder):
    bases = recorder.log.checkpoint_bases
    return [
        CheckpointId(pid, index)
        for pid in range(recorder.num_processes)
        for index in range(bases[pid], recorder.checkpoints_taken[pid] + 1)
    ]


@pytest.mark.usefixtures("low_prune_threshold")
class TestPrunedEqualsFullRecompute:
    """Pruned recorder vs identically-fed unpruned twin, instant by instant."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_analyses_agree_on_live_window(self, seed):
        script = _script(seed)
        num_processes = 2 + seed % 5
        pruned = TraceRecorder(num_processes)
        full = TraceRecorder(num_processes)
        pruned_feeder, full_feeder = TraceFeeder(pruned), TraceFeeder(full)
        for chunk in _chunks(script):
            pruned_feeder.feed(chunk)
            full_feeder.feed(chunk)
            pruned_ccp = pruned.ccp()
            truth_ccp = full.ccp()
            bases = pruned.log.checkpoint_bases

            def live(ids):
                return {cid for cid in ids if cid.index >= bases[cid.pid]}

            assert pruned_ccp.analyses.theorem1_retained == live(
                truth_ccp.analyses.theorem1_retained
            ), f"seed {seed}"
            assert pruned_ccp.analyses.theorem2_retained == live(
                truth_ccp.analyses.theorem2_retained
            ), f"seed {seed}"
            for faulty in range(num_processes):
                assert pruned_ccp.analyses.recovery_line(
                    {faulty}
                ) == truth_ccp.analyses.recovery_line({faulty}), f"seed {seed}"
            _eliminate_theorem1_garbage(pruned)
        # Force a final compaction and re-check the full analysis surface on
        # the maximally-pruned log.
        pruned.maybe_prune(force=True)
        pruned_ccp = pruned.ccp()
        truth_ccp = full.ccp()
        bases = pruned.log.checkpoint_bases
        assert pruned_ccp.analyses.theorem1_retained == {
            cid
            for cid in truth_ccp.analyses.theorem1_retained
            if cid.index >= bases[cid.pid]
        }
        for faulty in range(num_processes):
            assert pruned_ccp.analyses.recovery_line(
                {faulty}
            ) == truth_ccp.analyses.recovery_line({faulty})

    def test_pruning_fires_across_corpus(self):
        """The threshold heuristic must not starve: most seeds actually prune."""
        fired = 0
        for seed in SEEDS:
            script = _script(seed)
            recorder = TraceRecorder(2 + seed % 5)
            feeder = TraceFeeder(recorder)
            for chunk in _chunks(script):
                feeder.feed(chunk)
                _eliminate_theorem1_garbage(recorder)
            recorder.maybe_prune(force=True)
            if recorder.pruned_events > 0:
                fired += 1
        assert fired >= len(SEEDS) // 2

    @pytest.mark.parametrize("seed", SEEDS[::4])
    def test_zigzag_relation_exact_on_live_pairs(self, seed):
        script = _script(seed)
        num_processes = 2 + seed % 5
        pruned = TraceRecorder(num_processes)
        full = TraceRecorder(num_processes)
        pruned_feeder, full_feeder = TraceFeeder(pruned), TraceFeeder(full)
        for chunk in _chunks(script):
            pruned_feeder.feed(chunk)
            full_feeder.feed(chunk)
            pruned_zz = pruned.ccp().analyses.zigzag
            truth_zz = full.ccp().analyses.zigzag
            ids = _live_ids(pruned)
            for a in ids:
                for b in ids:
                    assert pruned_zz.zigzag_exists(a, b) == truth_zz.zigzag_exists(
                        a, b
                    ), f"seed {seed}: {a} ~> {b}"
            assert pruned_zz.zigzag_pair_count() == len(pruned_zz.zigzag_pairs())
            _eliminate_theorem1_garbage(pruned)


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


@pytest.mark.usefixtures("low_prune_threshold")
class TestKernelOnBasedLogs:
    """Blocked kernel vs brute force on pruned patterns (nonzero bases)."""

    def _pruned_ccp(self, seed):
        script = _script(seed)
        num_processes = 2 + seed % 5
        recorder = TraceRecorder(num_processes)
        feeder = TraceFeeder(recorder)
        for chunk in _chunks(script):
            feeder.feed(chunk)
            recorder.ccp()
            _eliminate_theorem1_garbage(recorder)
        return recorder.ccp(), recorder

    @pytest.mark.parametrize("seed", SEEDS[::4])
    def test_bigint_kernel_matches_brute_force(self, seed):
        ccp, recorder = self._pruned_ccp(seed)
        kernel = ZigzagAnalysis(ccp)
        brute = BruteForceZigzagAnalysis(ccp)
        assert set(kernel.zigzag_pairs()) == set(brute.zigzag_pairs())
        assert kernel.useless_checkpoints() == brute.useless_checkpoints()

    def test_there_is_no_backend_to_select(self):
        ccp, _ = self._pruned_ccp(SEEDS[0])
        with pytest.raises(TypeError):
            ZigzagAnalysis(ccp, kernel="numpy")
        assert not hasattr(ZigzagAnalysis(ccp), "kernel")


class TestChurnSchedules:
    """Crash/recovery churn: pruning + truncation rebuilds + index reuse."""

    def _run(self, seed, *, build, crashes, before_run=lambda runner: None):
        from repro.simulation.failures import FailureSchedule
        from repro.simulation.runner import SimulationConfig
        from repro.simulation.workloads import UniformRandomWorkload

        config = SimulationConfig(
            num_processes=4,
            duration=150.0,
            workload=UniformRandomWorkload(
                mean_message_gap=1.0, mean_checkpoint_gap=5.0
            ),
            failures=FailureSchedule.of(crashes),
            seed=seed,
            audit="full",
        )
        runner = build(config)
        before_run(runner)
        result = runner.run()
        return runner, result

    @pytest.mark.parametrize("seed", range(6))
    def test_pruned_run_matches_unpruned_twin_after_churn(self, seed, pruning_runner):
        crashes = [(50.0, seed % 4), (100.0, (seed + 2) % 4)]
        pruned_runner, pruned_result = self._run(seed, build=pruning_runner, crashes=crashes)
        full_runner, full_result = self._run(seed, build=SimulationRunner, crashes=crashes)
        assert len(pruned_result.recoveries) == 2
        # The simulation itself is deterministic in the seed: recording mode
        # must not leak into execution.
        assert [r.recovery_line for r in pruned_result.recoveries] == [
            r.recovery_line for r in full_result.recoveries
        ]
        assert pruned_result.all_audits_safe and pruned_result.all_audits_optimal
        assert full_result.all_audits_safe and full_result.all_audits_optimal
        pruned_ccp = pruned_runner.current_ccp()
        truth_ccp = full_runner.current_ccp()
        bases = pruned_runner.trace.log.checkpoint_bases
        live_t1 = {
            cid
            for cid in truth_ccp.analyses.theorem1_retained
            if cid.index >= bases[cid.pid]
        }
        assert pruned_ccp.analyses.theorem1_retained == live_t1
        for faulty in range(4):
            assert pruned_ccp.analyses.recovery_line(
                {faulty}
            ) == truth_ccp.analyses.recovery_line({faulty})

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

        runner, result = self._run(
            seed, build=SimulationRunner, crashes=crashes, before_run=schedule_checks
        )
        assert len(result.recoveries) == 2 and sinks[0].checked == 2
        assert len(between) == 6 and result.all_audits_safe
        assert_view_matches_literal(runner.trace)

    def test_pruned_run_trace_replays_and_verifies(self, tmp_path, pruning_runner):
        """Sinks see the full history: a pruned run's trace stays complete."""
        from repro.simulation.failures import FailureSchedule
        from repro.simulation.runner import SimulationConfig
        from repro.simulation.workloads import UniformRandomWorkload
        from repro.traceio.cli import main as traceio_main

        path = str(tmp_path / "pruned_run.trace.jsonl")
        config = SimulationConfig(
            num_processes=4,
            duration=120.0,
            workload=UniformRandomWorkload(
                mean_message_gap=1.0, mean_checkpoint_gap=5.0
            ),
            failures=FailureSchedule.of([(60.0, 1)]),
            seed=3,
            audit="full",
            trace_path=path,
        )
        runner = pruning_runner(config)
        result = runner.run()
        assert result.recoveries and runner.trace.pruned_events > 0
        assert traceio_main(["replay", path, "--verify"]) == 0


def _messages_from_events(log):
    """Brute force: the delivered messages and their intervals, from the events alone."""
    sends, receives = {}, {}
    for pid in log.processes:
        interval = log.checkpoint_base(pid)
        for event in log.history(pid).events:
            if event.kind is EventKind.CHECKPOINT:
                interval = event.checkpoint_index + 1
            elif event.kind is EventKind.SEND:
                sends[event.message_id] = (pid, event.seq, interval)
            elif event.kind is EventKind.RECEIVE:
                receives[event.message_id] = (pid, event.seq, interval)
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


def _assert_late_receive_accepted_once(recorder, message_id):
    assert not recorder.log.message(message_id).delivered
    recorder.record_receive(message_id, 10_000.0)
    assert recorder.log.message(message_id).delivered
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
        assert [m.message_id for m in recorder.ccp().messages()] == [0, 1, 2]
        receive_of_1 = recorder.log.message(1).receive_event
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
        assert log.event(receive_of_1).kind is EventKind.INTERNAL
        recorder.record_receive(1, 9_000.0)  # its send was rolled back: ignored
        assert log.event(receive_of_1).kind is EventKind.INTERNAL and not log.has_message(1)
        _assert_late_receive_accepted_once(recorder, 0)
        assert log.message(0) == Message(0, 0, 1, 1, 1, receive_seq=1, receive_interval=1)
        assert recorder.ccp().messages() == _messages_from_events(log)
        assert [m.message_id for m in recorder.ccp().messages()] == [0, 2]

    @pytest.mark.usefixtures("low_prune_threshold")
    @pytest.mark.parametrize("seed", SEEDS)
    def test_messages_equal_the_events_under_churn_and_pruning(self, seed):
        script = _script(seed)
        num_processes = 2 + seed % 5
        recorder = TraceRecorder(num_processes)
        feeder = TraceFeeder(recorder)
        for part, chunk in enumerate(_chunks(script)):
            feeder.feed(chunk)
            assert recorder.ccp().messages() == _messages_from_events(recorder.log)
            if part == 2:
                delivered = {m.message_id for m in recorder.log.delivered_messages()}
                plan = RecoveryManager().plan(recorder.ccp(), [seed % num_processes])
                recorder.apply_recovery(plan)
                feeder.resync()
                assert recorder.ccp().messages() == _messages_from_events(recorder.log)
                for message in recorder.log.messages():
                    if message.message_id in delivered and not message.delivered:
                        _assert_late_receive_accepted_once(recorder, message.message_id)
                assert recorder.ccp().messages() == _messages_from_events(recorder.log)
            _eliminate_theorem1_garbage(recorder)
        recorder.maybe_prune(force=True)
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
