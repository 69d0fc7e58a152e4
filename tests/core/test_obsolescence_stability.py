"""Obsolescence is stable: the premise of the explorer's event audit.

Between two consecutive states with no recovery session or membership
change in between, no stable checkpoint that had left the
Theorem-1 retained set re-enters it, and none re-enters its owner's
Theorem-2 set.  The sets come from the whole-state CCP audit
(``ccp.analyses``).  Checked over explored and fuzzed executions (token by
token) and over simulations with crashes and membership leaves (occurrence
by occurrence).
"""

from __future__ import annotations

import weakref

import pytest

from repro.explore.executor import ScheduleExecutor, ScheduleRun
from repro.explore.explorer import explore
from repro.explore.oracles import OracleStack
from repro.explore.program import ExploreConfig, StepKind, ring_program
from repro.fuzz import fuzz
from repro.membership import MembershipSchedule
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder, TraceSink
from repro.simulation.workloads import UniformRandomWorkload


class StabilityProbe:
    """Remembers each recorder's last state and checks the next one against it."""

    def __init__(self) -> None:
        self._last = weakref.WeakKeyDictionary()
        #: Consecutive state pairs checked.
        self.pairs = 0

    def forget(self, recorder: TraceRecorder) -> None:
        """History was rewritten: the next state starts a new sequence."""
        self._last.pop(recorder, None)

    def observe(self, recorder: TraceRecorder) -> None:
        ccp = recorder.ccp()
        stable = {cid for pid in ccp.processes for cid in ccp.stable_ids(pid)}
        state = (
            recorder.membership.members,
            stable,
            ccp.analyses.theorem1_retained,
            ccp.analyses.theorem2_retained,
        )
        last = self._last.get(recorder)
        self._last[recorder] = state
        if last is None or last[0] != state[0]:
            return  # the first state, or a membership change since
        self.pairs += 1
        _, was_stable, was_required, was_allowed = last
        assert not (was_stable - was_required) & state[2], "re-entered Theorem 1"
        assert not (was_stable - was_allowed) & state[3], "re-entered Theorem 2"


class _OccurrenceProbe(TraceSink):
    """Observes a recorder after every occurrence; a recovery session or a
    membership change starts a new sequence."""

    def __init__(self, probe: StabilityProbe, recorder: TraceRecorder) -> None:
        self.probe, self.recorder = probe, recorder
        recorder.attach_sink(self)

    def _observe(self, *_args, **_kwargs) -> None:
        self.probe.observe(self.recorder)

    def _forget(self, *_args) -> None:
        self.probe.forget(self.recorder)

    on_send = on_receive = on_duplicate_receive = on_checkpoint = on_internal = _observe
    on_recovery = on_join = on_leave = _forget


@pytest.fixture
def token_probe(monkeypatch):
    """A :class:`StabilityProbe` observing every schedule run after its
    initial state and after every token; a crash token starts a new sequence."""
    probe = StabilityProbe()
    initialise, apply = ScheduleRun.__init__, ScheduleRun.apply

    def observed_init(run, *args, **kwargs):
        initialise(run, *args, **kwargs)
        probe.observe(run.runner.trace)

    def observed_apply(run, token, audited):
        recoveries = len(run.runner.recoveries)
        apply(run, token, audited)
        if len(run.runner.recoveries) != recoveries:
            probe.forget(run.runner.trace)
        probe.observe(run.runner.trace)

    monkeypatch.setattr(ScheduleRun, "__init__", observed_init)
    monkeypatch.setattr(ScheduleRun, "apply", observed_apply)
    return probe


class TestObsolescenceIsStable:
    @pytest.mark.parametrize("protocol", ["fdas", "fdi", "cbr"])
    @pytest.mark.parametrize(
        "program",
        [ring_program(2, 4), ring_program(2, 4, crash_pid=0), ring_program(3, 3, crash_pid=0)],
        ids=["ring", "ring-crash", "ring3-crash"],
    )
    def test_along_explored_executions(self, token_probe, protocol, program):
        config = ExploreConfig(
            num_processes=max(step.pid for step in program) + 1,
            program=program,
            protocol=protocol,
        )
        assert explore(config, max_executions=400).ok
        assert token_probe.pairs > 200

    @pytest.mark.parametrize("target", ["gossip", "ring3-crash", "star-crash"])
    def test_along_fuzzed_executions(self, token_probe, target):
        assert fuzz(target, budget=60, seed=1, minimize=False).ok
        assert token_probe.pairs > 200

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_along_simulations_with_crashes_and_leaves(self, seed):
        config = SimulationConfig(
            num_processes=5,
            duration=120.0,
            workload=UniformRandomWorkload(mean_message_gap=1.5, mean_checkpoint_gap=6.0),
            failures=FailureSchedule.of([(45.0, seed % 5), (90.0, (seed + 2) % 5)]),
            membership=MembershipSchedule.of(leaves=[(70.0, (seed + 1) % 5)]),
            seed=seed,
        )
        runner = SimulationRunner(config)
        probe = StabilityProbe()
        _OccurrenceProbe(probe, runner.trace)
        runner.run()
        assert runner.trace.departed and runner.recoveries
        assert probe.pairs > 200


class TestTheFullAuditFollowsARewrite:
    """A recovery session and a leave each send the next audit to the
    whole-state path."""

    def test_a_crash_token_is_audited_in_full(self, monkeypatch):
        calls = []
        check_state, check_events = OracleStack.check_state, OracleStack.check_events

        def counted_state(stack, runner, step, **options):
            calls.append(("state", step))
            return check_state(stack, runner, step, **options)

        def counted_events(stack, runner, step, eliminated, changed):
            calls.append(("events", step))
            return check_events(stack, runner, step, eliminated, changed)

        monkeypatch.setattr(OracleStack, "check_state", counted_state)
        monkeypatch.setattr(OracleStack, "check_events", counted_events)
        config = ExploreConfig(2, ring_program(2, 2, crash_pid=0))
        schedule = [("a", step) for step in range(len(config.program))]
        crash = next(i for i, step in enumerate(config.program) if step.kind is StepKind.CRASH)
        run = ScheduleExecutor(config).start(schedule)
        assert run.violation is None
        assert calls[0] == ("state", 0)
        assert calls[crash + 1] == ("state", crash + 1)
        assert {kind for kind, step in calls[1:] if step != crash + 1} == {"events"}

    def _recorder(self) -> TraceRecorder:
        recorder = TraceRecorder(3)
        recorder.knowledge_mark()
        for pid in range(3):
            recorder.record_checkpoint(pid, 0, (0, 0, 0), forced=False, time=0.0)
        return recorder

    def test_a_recovery_session(self):
        from repro.recovery.manager import RecoveryManager

        recorder = self._recorder()
        recorder.record_send(0, 1, 1, 1.0)
        recorder.record_receive(1, 2.0)
        recorder.record_checkpoint(1, 1, (1, 1, 0), forced=False, time=3.0)
        mark = recorder.knowledge_mark()
        assert recorder.knowledge_changed_since(mark) == frozenset()
        recorder.apply_recovery(RecoveryManager().plan(recorder.ccp(), [0]))
        assert recorder.knowledge_changed_since(mark) is None

    def test_a_leave(self):
        recorder = self._recorder()
        mark = recorder.knowledge_mark()
        recorder.record_checkpoint(2, 1, (0, 0, 1), forced=False, time=1.0)
        assert recorder.knowledge_changed_since(mark) == frozenset({2})
        recorder.record_leave(1, 2.0)
        assert recorder.knowledge_changed_since(mark) is None

    def test_a_receive_that_teaches_nothing_changes_nothing(self):
        recorder = self._recorder()
        recorder.record_send(0, 1, 1, 1.0)
        recorder.record_receive(1, 2.0)  # p1 learns c_0^0
        recorder.record_send(0, 1, 2, 3.0)
        mark = recorder.knowledge_mark()
        recorder.record_receive(2, 4.0)  # nothing new
        assert recorder.knowledge_changed_since(mark) == frozenset()
