"""The knowledge tracker is born on demand and equals an eagerly fed twin.

A :class:`~repro.simulation.trace.TraceRecorder` builds its
:class:`~repro.ccp.incremental.CheckpointKnowledgeTracker` by one causal-order
replay of the current log at its first ``ccp()``; from then on ``record_*``
maintain it.  Whatever happened before that instant — plain recording, a
recovery truncation, a mid-run join, a whole trace replay — the caught-up
state must be the state an always-on tracker would hold, and a recorder that
is never asked for an analysis must never pay for one.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.causality.events import E_CHECKPOINT_INDEX
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
    members = sorted(recorder.membership.members)  # a dormant slot cannot fail
    plan = RecoveryManager().plan(ccp.analysis_provider, [members[victim % len(members)]])
    assume(is_consistent_global_checkpoint(ccp, plan.recovery_line))
    return plan


def _twins(num_processes: int, *, dormant: int = 0):
    """A lazy recorder and a twin whose tracker exists from event 0, each with
    ``dormant`` unjoined slots after its ``num_processes`` members."""
    lazy, eager = (
        TraceRecorder(num_processes + dormant, initial_members=range(num_processes))
        for _ in range(2)
    )
    eager.ccp()
    assert lazy.knowledge_tracker is None and eager.knowledge_tracker is not None
    return (lazy, TraceFeeder(lazy)), (eager, TraceFeeder(eager))


def checkpoint_snapshots(recorder: TraceRecorder):
    """``{c_p^k: knowledge frozen just before it}`` for every tracked checkpoint."""
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    return {
        CheckpointId(pid, index): row
        for pid, rows in enumerate(tracker.ckpt_rows)
        for index, row in enumerate(rows)
    }


def _state(recorder: TraceRecorder):
    """The tracker's whole state; every vector in it is capacity-sized."""
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    state = {
        "ck": [tuple(row) for row in tracker.ck],
        "ckpt_rows": checkpoint_snapshots(recorder),
        "msg_ck": dict(tracker.msg_ck),
        "journal": [list(entries) for entries in tracker.journal],
    }
    vectors = [*state["ck"], *state["ckpt_rows"].values(), *state["msg_ck"].values()]
    vectors += [vector for entries in state["journal"] for _, vector in entries]
    assert {len(vector) for vector in vectors} == {tracker.num_processes}
    return state


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
        self, assert_view_matches_literal, seed, crash, instant, victim
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
        assert_view_matches_literal(lazy)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, instant=fractions)
    def test_after_a_mid_run_join(self, assert_view_matches_literal, seed, instant):
        num_processes, script = _script(seed)
        (lazy, lazy_feeder), (eager, eager_feeder) = _twins(num_processes, dormant=1)
        cut = int(instant * len(script))
        joiner = num_processes  # the dormant slot
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
        assert_view_matches_literal(lazy)


class TestReplayedRecorder:
    def test_replay_truncates_before_its_first_ccp(self, tmp_path, assert_view_matches_literal):
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
        assert_view_matches_literal(replayed)


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
        runner.trace.ccp()
        assert runner.trace.knowledge_tracker is not None


class TestRecoveryKeepsEventObjects:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, crash=fractions, victim=st.integers(0, 5))
    def test_kept_events_are_the_same_objects(
        self, assert_view_matches_literal, seed, crash, victim
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
                assert kept[-1][E_CHECKPOINT_INDEX] == rollback.rollback_index
            assert all(now is then for now, then in zip(kept, before[pid]))
        assert_view_matches_literal(recorder)


def _assert_knowledge_grows_along_checkpoints(recorder: TraceRecorder) -> None:
    """What ``p`` knows of any ``f`` never shrinks from one general checkpoint
    of ``p`` to the next — the invariant ``IncrementalAnalysisView`` bisects on."""
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    frozen = checkpoint_snapshots(recorder)
    for pid in range(tracker.num_processes):
        stable = range(recorder.checkpoints_taken[pid])
        snapshots = [frozen[CheckpointId(pid, index)] for index in stable] + [tracker.ck[pid]]
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert all(a <= b for a, b in zip(earlier, later)), (pid, earlier, later)


class TestKnowledgeGrowsAlongCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, crash=fractions, victim=st.integers(0, 5))
    def test_after_truncation_index_reuse_and_a_join(self, seed, crash, victim):
        num_processes, script = _script(seed)
        recorder = TraceRecorder(num_processes + 1, initial_members=range(num_processes))
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

    def test_on_a_churn_run(self):
        config = SimulationConfig(
            num_processes=4,
            duration=150.0,
            workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
            failures=FailureSchedule.of([(50.0, 3), (90.0, 0), (120.0, 1)]),
            seed=5,
            audit="full",
        )
        runner = SimulationRunner(config)
        runner.trace.ccp()  # tracked from event 0, so the early checks have a tracker to read
        for time in range(10, 150, 10):
            runner.engine.schedule_at(
                float(time), lambda: _assert_knowledge_grows_along_checkpoints(runner.trace)
            )
        result = runner.run()
        assert len(result.recoveries) == 3
        _assert_knowledge_grows_along_checkpoints(runner.trace)
