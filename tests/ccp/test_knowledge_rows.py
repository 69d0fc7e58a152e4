"""The frozen knowledge snapshots are stored the way they are queried.

``CheckpointKnowledgeTracker.ckpt_rows[p]`` holds one snapshot per stable
checkpoint of ``p`` in index order, starting at index 0.  The bisections of
:class:`~repro.ccp.incremental.IncrementalAnalysisView` rely on three things
that nothing but the recorder's bookkeeping guarantees: the rows cover
exactly ``[0, last_stable(p)]`` (a recovery drops a suffix, reused indices
append again), every row is as long as the capacity (a dormant slot reads -1
until its process joins), and a view handed rows that do not satisfy this
refuses to answer instead of answering wrongly.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import GlobalCheckpoint, is_consistent_global_checkpoint
from repro.ccp.incremental import KnowledgeWindowError
from repro.recovery.manager import RecoveryManager
from repro.recovery.recovery_line import _recovery_line_lemma1
from repro.scenarios.random_patterns import TraceFeeder, random_ccp_script
from repro.simulation.trace import TraceRecorder


def assert_rows_cover_the_stable_checkpoints(recorder: TraceRecorder) -> None:
    tracker = recorder.knowledge_tracker
    assert tracker is not None
    n = recorder.num_processes
    assert tracker.num_processes == len(tracker.ckpt_rows) == n
    for pid, rows in enumerate(tracker.ckpt_rows):
        assert len(rows) == recorder.checkpoints_taken[pid], pid
        assert {len(row) for row in rows} <= {n}, pid
        assert len(tracker.ck[pid]) == n


class TestRowsFollowTheStableCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        crash=st.floats(min_value=0.1, max_value=0.9),
        victim=st.integers(0, 5),
    )
    def test_through_recovery_index_reuse_and_a_join(
        self, assert_view_matches_literal, seed, crash, victim
    ):
        num_processes = 2 + seed % 5
        script = random_ccp_script(
            seed,
            num_processes=num_processes,
            num_messages=20 + seed % 40,
            checkpoint_rate=0.15 + 0.04 * (seed % 6),
            undelivered_fraction=0.15,
        )
        joiner = num_processes  # the one dormant slot of a capacity of num_processes + 1
        recorder = TraceRecorder(num_processes + 1, initial_members=range(num_processes))
        recorder.ccp()  # born before the first event: delta-maintained throughout
        feeder = TraceFeeder(recorder)

        def check() -> None:
            """The rows keep the invariant and answer as the literal theorems do."""
            assert_rows_cover_the_stable_checkpoints(recorder)
            assert_view_matches_literal(recorder)

        crash_at = int(crash * len(script))
        feeder.feed(script[:crash_at])
        check()

        plan = RecoveryManager().plan(recorder.knowledge_view(), [victim % num_processes])
        assume(is_consistent_global_checkpoint(recorder.ccp(), plan.recovery_line))
        recorder.apply_recovery(plan)
        feeder.resync()
        check()

        recorder.record_join(joiner, 1000.0)
        assert_rows_cover_the_stable_checkpoints(recorder)  # dormant joiner: no row yet
        recorder.record_checkpoint(joiner, 0, [0] * (joiner + 1), forced=False, time=1001.0)
        recorder.record_send(joiner, 0, 10_000, 1002.0)
        recorder.record_receive(10_000, 1003.0)
        check()

        feeder.feed(script[crash_at:])  # reuses the rolled-back checkpoint indices
        check()


def _joined_after_two_checkpoints() -> TraceRecorder:
    """``p_0`` takes ``c^0, c^1``; the dormant ``p_2`` joins, takes ``c_2^0``
    and tells ``p_0``, which then takes ``c_0^2``."""
    recorder = TraceRecorder(3, initial_members=(0, 1))
    recorder.ccp()  # the tracker exists from event 0, so its early rows predate the join
    recorder.record_checkpoint(0, 0, (0, 0, 0), forced=False, time=1.0)
    recorder.record_checkpoint(1, 0, (0, 0, 0), forced=False, time=1.0)
    recorder.record_checkpoint(0, 1, (1, 0, 0), forced=False, time=2.0)
    recorder.record_join(2, 3.0)
    recorder.record_checkpoint(2, 0, (0, 0, 0), forced=False, time=4.0)
    recorder.record_send(2, 0, 1, 5.0)
    recorder.record_receive(1, 6.0)
    recorder.record_checkpoint(0, 2, (2, 0, 1), forced=False, time=7.0)
    return recorder


class TestSnapshotFrozenBeforeAJoin:
    def test_is_the_answer_for_the_joiners_column(self, assert_view_matches_literal):
        recorder = _joined_after_two_checkpoints()
        tracker = recorder.knowledge_tracker
        assert tracker.ckpt_rows[0] == [(-1, -1, -1), (0, -1, -1), (1, -1, 0)]
        view = recorder.ccp().analysis_provider
        # c_2^0 is first known at c_0^2: the checkpoint before it, whose
        # snapshot predates p_2, is what a failure of p_2 would roll p_0 back to.
        assert CheckpointId(0, 1) in view.theorem1_retained()
        assert view.recovery_line({2}) == GlobalCheckpoint((1, 1, 0))
        assert_view_matches_literal(recorder)


class TestRowsOutOfStep:
    def test_the_view_refuses_to_answer(self):
        recorder = _joined_after_two_checkpoints()
        del recorder.knowledge_tracker.ckpt_rows[0][0]
        view = recorder.ccp().analysis_provider
        for query in (
            lambda: view.theorem1_retained(),
            lambda: view.theorem2_retained(),
            lambda: view.recovery_line({1}),
        ):
            with pytest.raises(KnowledgeWindowError, match=r"rows reach \[1, 0, 0\] but"):
                query()

    def test_an_extra_row_is_out_of_step_too(self):
        # The log refuses an out-of-order index before the tracker hears of
        # it; a row appended behind the recorder's back shows at the next query.
        recorder = _joined_after_two_checkpoints()
        recorder.knowledge_tracker.note_checkpoint(0, 5, seq=99)
        with pytest.raises(KnowledgeWindowError, match=r"rows reach \[3, 0, 0\] but"):
            recorder.ccp().analysis_provider.theorem1_retained()

    def test_the_stale_view_check_comes_first(self):
        recorder = _joined_after_two_checkpoints()
        view = recorder.ccp().analysis_provider
        recorder.record_checkpoint(1, 1, (0, 1, 0), forced=False, time=8.0)
        with pytest.raises(RuntimeError, match="stale incremental analysis view"):
            view.theorem1_retained()


def _degenerate_recorder() -> TraceRecorder:
    """Capacity 5: ``p_0`` busy, ``p_1`` holding only ``s_1^0``, ``p_2``
    departed, ``p_3`` joined without a checkpoint yet, ``p_4`` never joined."""
    recorder = TraceRecorder(5, initial_members=frozenset({0, 1, 2}))
    recorder.ccp()
    for pid in (0, 1, 2):
        recorder.record_checkpoint(pid, 0, (0,) * 5, forced=False, time=1.0)
    recorder.record_send(2, 0, 1, 2.0)
    recorder.record_receive(1, 3.0)
    recorder.record_checkpoint(2, 1, (0,) * 5, forced=False, time=3.5)
    recorder.record_checkpoint(0, 1, (0,) * 5, forced=False, time=4.0)
    recorder.record_send(0, 1, 2, 5.0)
    recorder.record_receive(2, 6.0)
    recorder.record_leave(2, 7.0)
    recorder.record_join(3, 8.0)
    recorder.record_send(1, 0, 3, 9.0)
    recorder.record_receive(3, 10.0)
    recorder.record_checkpoint(0, 2, (0,) * 5, forced=False, time=11.0)
    return recorder


class TestDegenerateQueries:
    """Empty and one-row windows answer exactly as the literal Lemma 1."""

    @pytest.mark.parametrize("source", ["view", "literal"])
    @pytest.mark.parametrize(
        "faulty, line",
        [
            pytest.param(frozenset(), (3, 1, 2, 0, 0), id="nobody-faulty"),
            pytest.param(frozenset({1}), (1, 0, 2, 0, 0), id="window-of-s0-alone"),
            pytest.param(frozenset({0, 1}), (1, 0, 2, 0, 0), id="busy-and-s0-alone"),
        ],
    )
    def test_recovery_lines(self, source, faulty, line):
        ccp = _degenerate_recorder().ccp()
        if source == "literal":
            assert _recovery_line_lemma1(ccp, faulty) == GlobalCheckpoint(line)
        else:
            assert ccp.analysis_provider.recovery_line(faulty) == GlobalCheckpoint(line)

    def test_a_departed_faulty_pid(self):
        # A departed process cannot fail: the view refuses it, and the
        # literal transcription, which checks nothing, pins nobody for it.
        ccp = _degenerate_recorder().ccp()
        with pytest.raises(ValueError, match="faulty process 2 departed the membership"):
            ccp.analysis_provider.recovery_line({2})
        assert _recovery_line_lemma1(ccp, {2}) == GlobalCheckpoint((3, 1, 2, 0, 0))

    @pytest.mark.parametrize(
        "faulty", [{3}, {4}, {2, 3}], ids=["joined", "dormant", "with-departed"]
    )
    def test_a_faulty_process_without_a_checkpoint(self, faulty):
        # Outside Lemma 1 (only a member with a checkpoint can fail): the
        # view refuses the set, whose first pid is departed or has none,
        # and the literal transcription cannot name a last stable checkpoint.
        ccp = _degenerate_recorder().ccp()
        with pytest.raises(
            ValueError, match="faulty process [234] (has no stable checkpoint|departed)"
        ):
            ccp.analysis_provider.recovery_line(faulty)
        with pytest.raises(ValueError, match="has no stable checkpoint"):
            _recovery_line_lemma1(ccp, faulty)

    def test_retained_sets_skip_the_empty_and_departed_windows(self, assert_view_matches_literal):
        recorder = _degenerate_recorder()
        assert_rows_cover_the_stable_checkpoints(recorder)
        assert recorder.knowledge_tracker.ckpt_rows[3] == []  # joined, no checkpoint yet
        view = recorder.ccp().analysis_provider
        assert view.theorem1_retained() == {
            CheckpointId(0, 1), CheckpointId(0, 2), CheckpointId(1, 0)
        }
        assert view.theorem2_retained() == view.theorem1_retained()
        assert_view_matches_literal(recorder)
