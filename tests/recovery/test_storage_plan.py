"""A recovery line read from stable storage equals the one read from the history.

Under RDT a stored dependency vector answers Lemma 1's precedence test
(``s_f^m -> c`` iff ``dv(c)[f] > m``), so each process finds its part of the
line from its own storage (:func:`~repro.recovery.local_rollback`).  The
knowledge view's :meth:`recovery_line` is the oracle: a runner that keeps its
history checks every session it plans from storage against the view's plan
and raises :class:`~repro.recovery.PlanMismatchError` on a difference.
"""

import itertools
import random

import pytest

from repro.ccp.consistency import GlobalCheckpoint
from repro.membership import MembershipSchedule
from repro.recovery import (
    MissingCheckpointError,
    PlanMismatchError,
    RecoveryError,
    RecoveryManager,
    RollbackPlan,
    local_rollback,
)
from repro.simulation import runner as runner_module
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner, run_simulation
from repro.simulation.workloads import PipelineWorkload, make_workload

WORKLOADS = ("uniform-random", "pipeline", "ring", "client-server")


def _config(protocol, collector, workload, n, seed, *, crashes=6, duration=120.0, **extra):
    return SimulationConfig(
        num_processes=n,
        duration=duration,
        workload=make_workload(workload),
        protocol=protocol,
        collector=collector,
        seed=seed,
        failures=FailureSchedule.random(
            num_processes=n, duration=duration, count=crashes, rng=random.Random(seed)
        ),
        **extra,
    )


@pytest.fixture
def checked_sessions(monkeypatch):
    """The storage plans a runner checked against the view, in order."""
    checked = []
    check = SimulationRunner._check_against_view

    def counting(runner, plan, taken):
        check(runner, plan, taken)
        checked.append(plan)

    monkeypatch.setattr(SimulationRunner, "_check_against_view", counting)
    return checked


def _storage_plan_of(ccp, faulty):
    """The storage rule on a CCP whose every stable checkpoint is retained."""
    bounds = {f: ccp.last_stable(f) for f in faulty}
    line = []
    for pid in ccp.processes:
        stored = {cid.index: ccp.dv(cid) for cid in ccp.stable_ids(pid)}
        directive = local_rollback(stored, ccp.dv(ccp.volatile_id(pid)), bounds)
        line.append(ccp.volatile_index(pid) if directive is None else directive)
    taken = [ccp.volatile_index(pid) for pid in ccp.processes]
    return RollbackPlan.of_line(tuple(sorted(faulty)), GlobalCheckpoint(tuple(line)), taken)


class TestTheLocalRule:
    def test_a_process_whose_current_vector_passes_keeps_its_volatile_state(self):
        assert local_rollback({0: (0, 0), 1: (1, 1)}, (1, 2), {0: 1}) is None

    def test_the_bound_is_inclusive(self):
        # s_0^1 -> c iff dv(c)[0] > 1: a vector with dv[0] == 1 depends on s_0^0 only.
        stored = {0: (0, 0), 1: (1, 1), 2: (2, 2)}
        assert local_rollback(stored, (3, 3), {0: 1}) == 1
        assert local_rollback(stored, (3, 3), {0: 0}) == 0

    def test_every_faulty_bound_must_pass(self):
        stored = {0: (0, 0, 0), 1: (1, 1, 0), 2: (1, 2, 2)}
        assert local_rollback(stored, (1, 3, 2), {0: 1, 2: 1}) == 1

    def test_eliminated_checkpoints_are_skipped(self):
        assert local_rollback({0: (0, 0), 3: (2, 3)}, (2, 4), {0: 1}) == 0

    def test_no_retained_checkpoint_passes_is_typed(self):
        with pytest.raises(RecoveryError, match="no retained checkpoint"):
            local_rollback({2: (3, 2)}, (3, 3), {0: 1})


class TestFigure3:
    def test_every_faulty_set_gives_the_view_plan(self, figure3_ccp):
        ccp = figure3_ccp
        processes = list(ccp.processes)
        for size in range(1, len(processes) + 1):
            for faulty in itertools.combinations(processes, size):
                expected = RecoveryManager().plan(ccp.analysis_provider, faulty)
                assert _storage_plan_of(ccp, faulty) == expected, faulty

    def test_lemma1_for_two_faulty_processes(self, figure3_ccp):
        plan = _storage_plan_of(figure3_ccp, {0, 1})
        assert plan.recovery_line == figure3_ccp.analysis_provider.recovery_line({0, 1})


class TestEverySessionAgreesWithTheView:
    """Directly built runners keep their history, so each session is checked."""

    @pytest.mark.parametrize("protocol", ["fdas", "fdi", "cbr"])
    def test_rdt_lgc_under_each_rdt_protocol(self, protocol, checked_sessions):
        sessions = 0
        for workload, n, seed in itertools.product(WORKLOADS, (4, 8), (0, 1)):
            result = SimulationRunner(_config(protocol, "rdt-lgc", workload, n, seed)).run()
            sessions += len(result.recoveries)
        assert sessions > 0 and len(checked_sessions) == sessions

    @pytest.mark.parametrize("collector", ["none", "all-process-line", "wang-coordinated"])
    def test_the_other_safe_collectors(self, collector, checked_sessions):
        sessions = 0
        for workload, n in itertools.product(WORKLOADS, (4, 8)):
            result = SimulationRunner(_config("fdas", collector, workload, n, 3)).run()
            sessions += len(result.recoveries)
        assert sessions > 0 and len(checked_sessions) == sessions

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_membership_runs_pin_dormant_and_departed_processes(self, seed, checked_sessions):
        # Crashes fall in [24, 120): some while p5 is dormant, some after p2 left.
        membership = MembershipSchedule.of(joins=[(70.0, 5)], leaves=[(50.0, 2)])
        result = run_simulation(
            _config("fdas", "rdt-lgc", "uniform-random", 6, seed, crashes=8, membership=membership)
        )
        assert len(checked_sessions) == len(result.recoveries)
        times = [record.time for record in result.recoveries]
        assert any(time < 70.0 for time in times) and any(time > 50.0 for time in times)

    def test_a_mismatch_is_typed(self, monkeypatch):
        # A rule with "<" in place of "<=" disagrees with Lemma 1.
        def strict(retained, current, bounds):
            return local_rollback(retained, current, {f: b - 1 for f, b in bounds.items()})

        monkeypatch.setattr(runner_module, "local_rollback", strict)
        with pytest.raises(PlanMismatchError, match="stable storage gives the line"):
            SimulationRunner(_config("fdas", "rdt-lgc", "uniform-random", 4, 0)).run()


class TestTwoFaultyProcesses:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("workload", ["uniform-random", "pipeline", "ring"])
    def test_the_storage_plan_for_two_faulty_processes_is_lemma1s(
        self, workload, seed, checked_sessions
    ):
        runner = SimulationRunner(_config("fdas", "rdt-lgc", workload, 5, seed, crashes=3))
        for at in (40.0, 90.0):
            runner.engine.schedule_at(at, lambda: runner.inject_crash(0, 1))
        result = runner.run()
        joint = [plan for plan in checked_sessions if plan.faulty == (0, 1)]
        assert len(joint) == 2 and len(checked_sessions) == len(result.recoveries)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("workload", ["uniform-random", "pipeline", "ring"])
    def test_two_singleton_sessions_end_where_one_session_for_both_does(self, workload, seed):
        def state(runner):
            return [
                (dict(node.storage.stored_vectors()), node.current_dv, node.crashed)
                for node in runner.nodes
            ]

        config = _config("fdas", "rdt-lgc", workload, 4, seed, crashes=0, duration=60.0)
        apart, together = SimulationRunner(config), SimulationRunner(config)
        # Scheduled alike, so both sessions fall on the same side of a
        # workload action at t = 30 (the ring sends at every 0.75).
        apart.engine.schedule_at(30.0, lambda: apart.inject_crash(0))
        apart.engine.schedule_at(30.0, lambda: apart.inject_crash(1))
        together.engine.schedule_at(30.0, lambda: together.inject_crash(0, 1))
        apart_result, together_result = apart.run(), together.run()
        (joint,) = together_result.recoveries
        assert joint.faulty == (0, 1)
        assert state(apart) == state(together)
        assert apart_result.metrics_dict() == {
            **together_result.metrics_dict(), "recoveries": 2
        }


class TestCoverage:
    def test_a_covered_crash_run_reads_no_history(self):
        config = _config("fdas", "rdt-lgc", "uniform-random", 4, 0)
        assert not runner_module._reads_history(config)

    @pytest.mark.parametrize(
        "protocol, collector",
        [("uncoordinated", "rdt-lgc"), ("fdas", "manivannan-singhal"), ("fdas", "canary-unsafe")],
    )
    def test_an_uncovered_crash_run_reads_its_history(self, protocol, collector):
        config = _config(protocol, collector, "uniform-random", 4, 0)
        assert runner_module._reads_history(config)
        assert not runner_module._reads_history(
            _config(protocol, collector, "uniform-random", 4, 0, crashes=0)
        )


class TestAnEliminatedCheckpointIsTyped:
    def test_the_recovery_fails_before_anything_rolls_back(self):
        config = SimulationConfig(
            num_processes=4,
            duration=120.0,
            workload=PipelineWorkload(),
            protocol="fdas",
            collector="manivannan-singhal",
            seed=5,
            failures=FailureSchedule.random(
                num_processes=4, duration=120.0, count=6, rng=random.Random(5)
            ),
        )
        runner = SimulationRunner(config)
        with pytest.raises(MissingCheckpointError, match=r"s3\^5.*'manivannan-singhal'") as caught:
            runner.run()
        assert (caught.value.pid, caught.value.index) == (3, 5)
        # Nothing rolled back: every process still holds what the history recorded.
        taken = tuple(node.storage.last_index() + 1 for node in runner.nodes)
        assert taken == runner.trace.checkpoints_taken
