"""The knowledge tracker is born on demand and equals an eagerly fed twin.

``TraceRecorder.ccp()`` builds the
:class:`~repro.ccp.incremental.CheckpointKnowledgeTracker` at its first call
by one causal-order replay of the current log; from then on ``record_*``
maintain it.  Whatever happened before that first call — plain recording, a
recovery truncation, a membership growth, a whole trace replay — the caught-up
state must be the state an always-on tracker would hold, and a recorder that
is never asked for an analysis must never pay for one.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import is_consistent_global_checkpoint
from repro.recovery.manager import RecoveryManager
from repro.scenarios.random_patterns import TraceFeeder, random_ccp_script
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload
from repro.traceio.reader import TraceReader

seeds = st.integers(min_value=0, max_value=2**16)
fractions = st.floats(min_value=0.0, max_value=1.0)


def _script(seed: int):
    num_processes = 2 + seed % 5
    script = random_ccp_script(
        seed,
        num_processes=num_processes,
        num_messages=20 + seed % 40,
        checkpoint_rate=0.15 + 0.04 * (seed % 6),
        undelivered_fraction=0.15,
    )
    return num_processes, script


def _plan(recorder: TraceRecorder, victim: int):
    """A rollback plan for ``victim``; the example is discarded unless its line is consistent.

    The scripts are arbitrary patterns, not RDT executions, so Lemma 1 may
    name an inconsistent line on them — outside what a recovery session is
    defined for.
    """
    ccp = recorder.ccp()
    plan = RecoveryManager().plan(ccp, [victim % recorder.num_processes])
    assume(is_consistent_global_checkpoint(ccp, plan.recovery_line))
    return plan


def _twins(num_processes: int):
    """A lazy recorder and a twin whose tracker exists from event 0."""
    lazy, eager = TraceRecorder(num_processes), TraceRecorder(num_processes)
    eager.ccp()
    assert lazy.knowledge_tracker is None and eager.knowledge_tracker is not None
    return (lazy, TraceFeeder(lazy)), (eager, TraceFeeder(eager))


def checkpoint_snapshots(recorder: TraceRecorder):
    """``{c_p^k: knowledge frozen just before it}`` for every tracked checkpoint."""
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    return {
        CheckpointId(pid, base + offset): row
        for pid, (base, rows) in enumerate(zip(tracker.ckpt_base, tracker.ckpt_rows))
        for offset, row in enumerate(rows)
    }


def _state(recorder: TraceRecorder):
    """The tracker's whole state, snapshots padded to the current capacity.

    Message and journal snapshots frozen before a membership growth are
    legitimately shorter than ones taken by a replay at the grown capacity
    (a missing column reads as -1), so the comparison pads them.
    """
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    n = tracker.num_processes

    def pad(vector):
        return tuple(vector) + (-1,) * (n - len(vector))

    return {
        "ck": [pad(row) for row in tracker.ck],
        "ckpt_rows": {cid: pad(vector) for cid, vector in checkpoint_snapshots(recorder).items()},
        "msg_ck": {mid: pad(vector) for mid, vector in tracker.msg_ck.items()},
        "journal": [[(seq, pad(vector)) for seq, vector in entries] for entries in tracker.journal],
        "base_ck": [pad(vector) for vector in tracker.base_ck],
    }


class TestCatchUpEqualsEagerTwin:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, instant=fractions)
    def test_at_a_random_instant(self, seed, instant):
        num_processes, script = _script(seed)
        (lazy, lazy_feeder), (eager, eager_feeder) = _twins(num_processes)
        cut = int(instant * len(script))
        lazy_feeder.feed(script[:cut])
        eager_feeder.feed(script[:cut])
        assert lazy.knowledge_tracker is None
        lazy.ccp()
        assert _state(lazy) == _state(eager)
        # Born, the tracker is delta-maintained like the twin's.
        lazy_feeder.feed(script[cut:])
        eager_feeder.feed(script[cut:])
        assert _state(lazy) == _state(eager)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, crash=fractions, instant=fractions, victim=st.integers(0, 5))
    def test_after_a_recovery_truncation(
        self, assert_view_matches_classic, seed, crash, instant, victim
    ):
        num_processes, script = _script(seed)
        (lazy, lazy_feeder), (eager, eager_feeder) = _twins(num_processes)
        crash_at = int(crash * len(script))
        lazy_feeder.feed(script[:crash_at])
        eager_feeder.feed(script[:crash_at])
        plan = _plan(eager, victim)
        for recorder, feeder in ((lazy, lazy_feeder), (eager, eager_feeder)):
            recorder.apply_recovery(plan)
            feeder.resync()
        resume = crash_at + int(instant * (len(script) - crash_at))
        lazy_feeder.feed(script[crash_at:resume])
        eager_feeder.feed(script[crash_at:resume])
        assert lazy.knowledge_tracker is None  # truncated before its first ccp()
        assert lazy.log.messages() == eager.log.messages()
        lazy.ccp()
        assert _state(lazy) == _state(eager)
        assert_view_matches_classic(lazy)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, instant=fractions)
    def test_after_a_membership_growth(self, assert_view_matches_classic, seed, instant):
        num_processes, script = _script(seed)
        (lazy, lazy_feeder), (eager, eager_feeder) = _twins(num_processes)
        cut = int(instant * len(script))
        joiner = num_processes  # one past the capacity: every structure grows
        for recorder, feeder in ((lazy, lazy_feeder), (eager, eager_feeder)):
            feeder.feed(script[:cut])
            recorder.record_join(joiner, 1000.0)
            recorder.record_checkpoint(joiner, 0, [0] * (joiner + 1), forced=False, time=1001.0)
            recorder.record_send(joiner, 0, 10_000, 1002.0)
            recorder.record_receive(10_000, 1003.0)
            recorder.record_send(0, joiner, 10_001, 1004.0)
            recorder.record_receive(10_001, 1005.0)
            recorder.record_checkpoint(joiner, 1, [0] * (joiner + 1), forced=False, time=1006.0)
            feeder.feed(script[cut:])
        assert lazy.knowledge_tracker is None
        lazy.ccp()
        assert _state(lazy) == _state(eager)
        assert_view_matches_classic(lazy)


class TestReplayedRecorder:
    def test_replay_truncates_before_its_first_ccp(self, tmp_path, assert_view_matches_classic):
        path = str(tmp_path / "churn.trace.jsonl")
        config = SimulationConfig(
            num_processes=4,
            duration=120.0,
            workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
            failures=FailureSchedule.of([(50.0, 3), (90.0, 0)]),
            seed=3,
            trace_path=path,
        )
        runner = SimulationRunner(config)
        runner.trace.ccp()  # the live recorder tracks from event 0
        assert len(runner.run().recoveries) == 2
        replayed = TraceReader(path).replay().recorder
        assert replayed.knowledge_tracker is None
        replayed.ccp()
        assert _state(replayed) == _state(runner.trace)
        assert_view_matches_classic(replayed)


class TestNoAnalysisNoTracker:
    def test_audit_off_crash_free_run_never_builds_the_tracker(self):
        config = SimulationConfig(
            num_processes=4,
            duration=60.0,
            workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
            seed=2,
        )
        runner = SimulationRunner(config)
        runner.run()
        assert runner.trace.knowledge_tracker is None
        runner.current_ccp()
        assert runner.trace.knowledge_tracker is not None

    def test_pruning_recorder_tracks_from_event_zero(self):
        # A compacted log cannot be replayed, so there is nothing to catch up from.
        assert TraceRecorder(3, prune=True).knowledge_tracker is not None


class TestRecoveryKeepsEventObjects:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, crash=fractions, victim=st.integers(0, 5))
    def test_kept_events_are_the_same_objects(
        self, assert_view_matches_classic, seed, crash, victim
    ):
        num_processes, script = _script(seed)
        recorder = TraceRecorder(num_processes)
        feeder = TraceFeeder(recorder)
        feeder.feed(script[: int(crash * len(script))])
        before = [list(recorder.log.history(pid).events) for pid in range(num_processes)]
        plan = _plan(recorder, victim)
        recorder.apply_recovery(plan)
        for pid in range(num_processes):
            kept = recorder.log.history(pid).events
            rollback = plan.rollback_for(pid)
            if rollback is None:
                assert len(kept) == len(before[pid])
            else:
                assert kept[-1].checkpoint_index == rollback.rollback_index
            assert all(now is then for now, then in zip(kept, before[pid]))
        assert_view_matches_classic(recorder)


def _assert_knowledge_grows_along_checkpoints(recorder: TraceRecorder) -> None:
    """What ``p`` knows of any ``f`` never shrinks from one general checkpoint
    of ``p`` to the next — the invariant ``IncrementalAnalysisView`` bisects on."""
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    n = tracker.num_processes
    frozen = checkpoint_snapshots(recorder)
    for pid in range(n):
        window = range(recorder.log.checkpoint_base(pid), recorder.checkpoints_taken[pid])
        snapshots = [frozen[CheckpointId(pid, index)] for index in window] + [tracker.ck[pid]]
        padded = [tuple(vector) + (-1,) * (n - len(vector)) for vector in snapshots]
        for earlier, later in zip(padded, padded[1:]):
            assert all(a <= b for a, b in zip(earlier, later)), (pid, earlier, later)


class TestKnowledgeGrowsAlongCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, crash=fractions, victim=st.integers(0, 5))
    def test_after_truncation_index_reuse_and_growth(self, seed, crash, victim):
        num_processes, script = _script(seed)
        recorder = TraceRecorder(num_processes)
        feeder = TraceFeeder(recorder)
        crash_at = int(crash * len(script))
        feeder.feed(script[:crash_at])
        recorder.apply_recovery(_plan(recorder, victim))
        feeder.resync()
        _assert_knowledge_grows_along_checkpoints(recorder)
        joiner = num_processes
        recorder.record_join(joiner, 1000.0)
        recorder.record_checkpoint(joiner, 0, [0] * (joiner + 1), forced=False, time=1001.0)
        recorder.record_send(joiner, 0, 10_000, 1002.0)
        recorder.record_receive(10_000, 1003.0)
        feeder.feed(script[crash_at:])  # reuses the rolled-back checkpoint indices
        _assert_knowledge_grows_along_checkpoints(recorder)

    def test_on_a_pruned_churn_run(self):
        config = SimulationConfig(
            num_processes=4,
            duration=150.0,
            workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
            failures=FailureSchedule.of([(50.0, 3), (90.0, 0), (120.0, 1)]),
            seed=5,
            audit="full",
            prune_trace=True,
        )
        runner = SimulationRunner(config)
        for time in range(10, 150, 10):
            runner.engine.schedule_at(
                float(time), lambda: _assert_knowledge_grows_along_checkpoints(runner.trace)
            )
        result = runner.run()
        assert len(result.recoveries) == 3 and runner.trace.pruned_events > 0
        _assert_knowledge_grows_along_checkpoints(runner.trace)
