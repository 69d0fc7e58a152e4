"""The schedule-space explorer: enumeration, reduction, budget, oracles."""

from __future__ import annotations

import os

import pytest

from repro.explore import (
    ExploreConfig,
    OracleStack,
    checkpoint,
    explore,
    gossip_program,
    ring_program,
    send,
    star_program,
    validate_schedule,
)
from repro.protocols.registry import available_protocols


def _tiny(messages=2, **kwargs):
    return ExploreConfig(
        num_processes=2, program=ring_program(2, messages), **kwargs
    )


class TestEnumeration:
    def test_exhaustive_walk_is_deterministic(self):
        results = [explore(_tiny()) for _ in range(2)]
        a, b = (r.stats.as_dict() for r in results)
        assert a == b
        assert results[0].ok and results[1].ok
        assert results[0].stats.complete

    def test_every_message_generates_delivery_branching(self):
        # 2 messages: strictly more schedules than the single linear order.
        stats = explore(_tiny()).stats
        assert stats.schedules > 1
        assert stats.deepest == len(_tiny().program) + 2  # steps + deliveries

    def test_reduction_prunes_but_preserves_the_verdict(self):
        full = explore(_tiny(), reduction=False)
        reduced = explore(_tiny())
        assert full.ok and reduced.ok
        assert reduced.stats.executions < full.stats.executions
        assert full.stats.sleep_pruned == 0
        assert reduced.stats.sleep_pruned > 0

    def test_exhaustive_schedule_count_without_reduction(self):
        # One message, program [send, ckpt, ckpt]: the delivery slots in at
        # any of the 3 positions after the send => 3 complete schedules.
        config = ExploreConfig(
            num_processes=2,
            program=(send(0, 1), checkpoint(0), checkpoint(1)),
        )
        result = explore(config, reduction=False)
        assert result.ok
        assert result.stats.schedules == 3


class TestBudget:
    def test_budget_stops_with_a_deterministic_frontier(self):
        runs = [explore(_tiny(4), max_executions=50) for _ in range(2)]
        for result in runs:
            assert not result.stats.complete
            assert result.stats.executions == 50
            assert result.stats.frontier is not None
        assert runs[0].stats.frontier == runs[1].stats.frontier

    def test_larger_budget_extends_the_walk(self):
        small = explore(_tiny(4), max_executions=50)
        large = explore(_tiny(4), max_executions=200)
        assert large.stats.executions > small.stats.executions

    def test_unbudgeted_walk_reports_complete(self):
        result = explore(_tiny())
        assert result.stats.complete
        assert result.stats.frontier is None


class TestCrashConfigurations:
    def test_rdt_lgc_survives_every_crash_interleaving(self):
        config = ExploreConfig(
            num_processes=2,
            program=ring_program(2, 2, crash_pid=0),
        )
        result = explore(config)
        assert result.ok, result.first and str(result.first.violation)
        assert result.stats.complete

    def test_recovery_line_oracle_rejects_a_bogus_line(self):
        from repro.simulation.runner import (
            RecoveryRecord,
            SimulationConfig,
            SimulationRunner,
        )
        from repro.simulation.workloads import ScriptedWorkload

        runner = SimulationRunner(
            SimulationConfig(
                num_processes=2, duration=10.0, workload=ScriptedWorkload([])
            )
        )
        for node in runner.nodes:
            node.start()
        # A line naming the faulty process's volatile index is invalid.
        record = RecoveryRecord(
            time=1.0,
            faulty=(0,),
            recovery_line=(99, 0),
            rolled_back_processes=0,
            lost_general_checkpoints=0,
            collected_during_recovery=0,
        )
        violation = OracleStack().check_recovery(
            runner.trace.ccp(), record, step=1
        )
        assert violation is not None and violation.kind == "recovery-line"

    @pytest.mark.parametrize("num_processes, messages", [(2, 3), (3, 4), (3, 5)])
    def test_mid_round_crash_explores_clean(self, num_processes, messages):
        # The crash falls between checkpoint rounds, so non-faulty processes
        # roll back too and the oracles need the full pre-crash history.
        config = ExploreConfig(
            num_processes=num_processes,
            program=ring_program(num_processes, messages, crash_pid=0),
        )
        result = explore(config, max_executions=150)
        assert result.ok, result.first and str(result.first.violation)

    def test_pre_crash_pattern_survives_the_recovery_session(self):
        from dataclasses import replace

        from repro.simulation.runner import SimulationConfig, SimulationRunner
        from repro.simulation.workloads import ScriptedWorkload

        runner = SimulationRunner(
            SimulationConfig(
                num_processes=2, duration=100.0, workload=ScriptedWorkload([])
            )
        )
        for node in runner.nodes:
            node.start()
            node.take_checkpoint(forced=False)
        runner.nodes[0].send_message(1)  # received after s_1^1: p1 must roll back
        runner.engine.run(until=50.0)
        pre_crash_ccp = runner.trace.ccp()
        events_before = pre_crash_ccp.log.total_events()
        runner.inject_crash(0)
        record = runner.recoveries[-1]
        assert record.recovery_line == (1, 1) and record.rolled_back_processes == 2
        # The snapshot handed out before the crash still holds the discarded
        # send/receive pair, so the real line passes (brute-force cross-check
        # included) and a line keeping the orphan receive is rejected.
        assert pre_crash_ccp.log.total_events() == events_before
        assert runner.trace.log.total_events() < events_before
        oracles = OracleStack()
        assert oracles.check_recovery(pre_crash_ccp, record, step=1) is None
        orphaned = replace(record, recovery_line=(1, 2))
        violation = oracles.check_recovery(pre_crash_ccp, orphaned, step=1)
        assert violation is not None and "inconsistent" in violation.detail


class TestScheduleValidation:
    def test_well_formed_schedule_passes(self):
        config = _tiny()
        validate_schedule(config, [("a", 0), ("a", 1), ("d", 0)])

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([("d", 0)], "has not been sent"),
            ([("a", 1)], "expected program step 0"),
            ([("a", 0), ("d", 0), ("d", 0)], "delivered twice"),
            ([("x", 0)], "unknown kind"),
        ],
    )
    def test_malformed_schedules_are_rejected(self, schedule, message):
        with pytest.raises(ValueError, match=message):
            validate_schedule(_tiny(), schedule)

    def test_program_validation(self):
        with pytest.raises(ValueError, match="references process"):
            ExploreConfig(num_processes=2, program=(send(0, 5),))
        with pytest.raises(ValueError, match="target"):
            send(0, None)  # type: ignore[arg-type]


class TestOracleDerivation:
    def test_optimality_follows_collector_and_protocol(self):
        assert OracleStack.for_config(_tiny()).check_optimality
        assert not OracleStack.for_config(_tiny(collector="none")).check_optimality
        assert not OracleStack.for_config(
            _tiny(protocol="uncoordinated")
        ).check_optimality

    def test_rdt_follows_the_protocol(self):
        assert OracleStack.for_config(_tiny()).check_rdt
        assert not OracleStack.for_config(_tiny(protocol="uncoordinated")).check_rdt


class TestFoundFailureModes:
    """The Manivannan–Singhal window violation as a *found* counterexample.

    The stand-in's unsafety under a violated timing assumption was
    previously staged (campaign cells with a tight window and injected
    crashes at magic seeds); here the explorer *derives* the failing
    delivery order: an early delivery pins the sender's old checkpoint as
    Theorem-1-required on behalf of a process that has not checkpointed
    since, and the time-window prune then discards it.
    """

    VIOLATED_WINDOW = (
        ("checkpoint_period", 2.0),
        ("max_message_delay", 0.5),
        ("slack", 0.5),
    )

    def _program(self):
        # p1 checkpoints only at the very end, so p0's early checkpoints
        # stay required on p1's behalf long past the (violated) window.
        return (
            send(1, 0),
            checkpoint(0),
            send(0, 1),
            send(1, 0),
            checkpoint(0),
            send(0, 1),
            checkpoint(1),
            checkpoint(0),
        )

    def test_window_violation_is_found_and_shrinks(self):
        from repro.explore import shrink

        config = ExploreConfig(
            num_processes=2,
            program=self._program(),
            collector="manivannan-singhal",
            collector_options=self.VIOLATED_WINDOW,
        )
        result = explore(config, max_executions=20000)
        assert not result.ok
        violation = result.first.violation
        assert violation.kind == "safety"
        assert "Theorem-1-required" in violation.detail
        shrunk = shrink(result.first.config, result.first.schedule, violation)
        assert shrunk.trace_events <= 12
        # The failing order needs the early delivery: at least one delivery
        # token survives shrinking.
        assert any(token[0] == "d" for token in shrunk.schedule)

    def test_honoured_window_sweeps_clean_on_the_same_program(self):
        config = ExploreConfig(
            num_processes=2,
            program=self._program(),
            collector="manivannan-singhal",
            collector_options=(("checkpoint_period", 50.0),),
        )
        result = explore(config, max_executions=20000)
        assert result.ok


class TestTopologyPrograms:
    """The star and gossip program families (topology workload skeletons)."""

    def test_star_program_shape(self):
        program = star_program(3, 2)
        sends = [s for s in program if s.kind.value == "send"]
        # Each request has a hub reply; clients alternate.
        assert [(s.pid, s.target) for s in sends] == [
            (1, 0), (0, 1), (2, 0), (0, 2),
        ]

    def test_star_program_validation(self):
        with pytest.raises(ValueError, match="hub"):
            star_program(1, 2)
        with pytest.raises(ValueError):
            star_program(3, -1)

    def test_gossip_program_shape(self):
        program = gossip_program(3, 2, fanout=2)
        sends = [s for s in program if s.kind.value == "send"]
        assert [(s.pid, s.target) for s in sends] == [
            (0, 1), (0, 2), (1, 2), (1, 0),
        ]

    def test_gossip_program_validation(self):
        with pytest.raises(ValueError, match="fanout"):
            gossip_program(3, 2, fanout=3)
        with pytest.raises(ValueError):
            gossip_program(3, -1)

    def test_star_crash_explores_clean(self):
        config = ExploreConfig(
            num_processes=2, program=star_program(2, 1, crash_pid=0)
        )
        result = explore(config)
        assert result.ok and result.stats.complete

    def test_gossip_explores_clean(self):
        config = ExploreConfig(num_processes=3, program=gossip_program(3, 1))
        result = explore(config)
        assert result.ok and result.stats.complete


class TestAcceptanceSweep:
    """The acceptance configuration: 2 processes x 6 messages.

    Tier-1 explores every protocol exhaustively at 4 messages (identical
    code paths, seconds) and walks a deterministic 6-message frontier; with
    ``EXPLORE_EXHAUSTIVE=1`` — set by CI's gates job, the nightly workflow
    and `python -m repro explore sweep` verification runs — the 6-message
    walk is exhaustive across every registered protocol.
    """

    def test_all_protocols_are_clean_at_four_messages(self):
        for protocol in available_protocols():
            config = ExploreConfig(
                num_processes=2,
                program=ring_program(2, 4, checkpoint_every=3),
                protocol=protocol,
            )
            result = explore(config)
            assert result.stats.complete
            assert result.ok, (
                f"{protocol}: {result.first and result.first.violation}"
            )

    def test_rdt_lgc_is_clean_on_the_6_message_configuration(self):
        exhaustive = os.environ.get("EXPLORE_EXHAUSTIVE") == "1"
        budget = None if exhaustive else 2500
        protocols = available_protocols() if exhaustive else ["fdas"]
        for protocol in protocols:
            config = ExploreConfig(
                num_processes=2,
                program=ring_program(2, 6),
                protocol=protocol,
            )
            result = explore(config, max_executions=budget)
            assert result.ok, (
                f"{protocol}: {result.first and result.first.violation}"
            )
            if exhaustive:
                assert result.stats.complete
                assert result.stats.schedules > 1000  # a genuine schedule *space*
            else:
                assert result.stats.executions == budget  # deterministic frontier


class TestRunHandOff:
    """A node's first explored child extends its parent's live run; later
    siblings replay their prefix.  The walk must equal one that replays
    every node from scratch (the ``replaying_explore`` reference)."""

    GRID = [
        pytest.param(
            dict(program=ring_program(2, 4), collector="canary-unsafe"),
            dict(max_counterexamples=3),
            id="canary-unsafe",
        ),
        pytest.param(
            dict(program=ring_program(2, 4), collector="canary-hoarder"),
            dict(max_counterexamples=3),
            id="canary-hoarder",
        ),
        pytest.param(
            dict(program=ring_program(2, 3, crash_pid=0)), {}, id="crash"
        ),
        pytest.param(
            dict(program=ring_program(2, 3), collector="wang-coordinated"),
            {},
            id="wang-coordinated",
        ),
        pytest.param(
            dict(program=ring_program(2, 5), seed=1),
            dict(max_executions=300),
            id="budgeted",
        ),
    ]

    @pytest.mark.parametrize("reduction", [True, False])
    @pytest.mark.parametrize("config_options, walk_options", GRID)
    def test_walk_equals_the_replaying_reference(
        self, replaying_explore, config_options, walk_options, reduction
    ):
        config = ExploreConfig(num_processes=2, **config_options)
        walked = explore(config, reduction=reduction, **walk_options)
        reference = replaying_explore(config, reduction=reduction, **walk_options)
        assert walked.stats.as_dict() == reference.stats.as_dict()
        assert walked.counterexamples == reference.counterexamples
        if "max_executions" in walk_options:
            assert walked.stats.frontier is not None
        # Each canary walk finds the 3 counterexamples it asks for; the rest none.
        assert len(walked.counterexamples) == walk_options.get("max_counterexamples", 0)

    def test_only_later_siblings_rebuild_and_the_root_is_audited_once(
        self, monkeypatch, replaying_explore
    ):
        """The benchmark's schedule-search walk: 541 runners instead of 1500."""
        from repro.simulation.runner import SimulationRunner

        counts = {"runners": 0, "check_state": 0}
        build = SimulationRunner.__init__
        check_state = OracleStack.check_state

        def counting_build(runner, config):
            counts["runners"] += 1
            build(runner, config)

        def counting_check(stack, *args, **kwargs):
            counts["check_state"] += 1
            return check_state(stack, *args, **kwargs)

        monkeypatch.setattr(SimulationRunner, "__init__", counting_build)
        monkeypatch.setattr(OracleStack, "check_state", counting_check)
        config = ExploreConfig(num_processes=2, program=ring_program(2, 5), seed=1)

        walked = explore(config, max_executions=1500)
        walk_counts = dict(counts)
        counts.update(runners=0, check_state=0)
        reference = replaying_explore(config, max_executions=1500)

        assert walked.stats.as_dict() == reference.stats.as_dict()
        assert walk_counts["runners"] == 541
        assert counts["runners"] == 1500
        assert walk_counts["check_state"] == counts["check_state"] - 1

    def test_a_terminal_run_refuses_to_be_extended(self):
        from repro.explore.executor import ScheduleExecutor

        config = ExploreConfig(
            num_processes=2, program=(send(0, 1), checkpoint(0), checkpoint(1))
        )
        run = ScheduleExecutor(config).start([("a", 0), ("d", 0), ("a", 1), ("a", 2)])
        outcome = run.outcome()
        assert outcome.terminal and outcome.violation is None
        assert run.outcome() is outcome  # the flush and final audit ran once
        with pytest.raises(RuntimeError, match="terminal"):
            run.apply(("a", 3), audited=True)

    def test_a_violating_run_refuses_to_be_extended(self):
        from repro.explore.executor import ScheduleExecutor

        config = _tiny(4, collector="canary-unsafe")
        counterexample = explore(config).first
        run = ScheduleExecutor(config).start(counterexample.schedule)
        outcome = run.outcome()
        assert outcome.violation == counterexample.violation
        assert not outcome.terminal and outcome.enabled == ()
        with pytest.raises(RuntimeError, match="violating"):
            run.apply(("d", 0), audited=True)


class TestEventAudit:
    """A token audited by event gives what the whole-state CCP audit gives,
    over the smoke sweep's grid (canaries included) and its crash variant:
    the same stats and the same counterexamples (kind, step and detail)."""

    @pytest.mark.parametrize("with_crash", [False, True], ids=["smoke", "crash"])
    def test_event_audit_changes_no_walk(
        self, monkeypatch, state_audit_check_events, with_crash
    ):
        from repro.gc.canaries import CANARY_NAMES
        from repro.gc.registry import available_collectors
        from repro.scenarios.experiments import (
            explore_sweep_collectors,
            explore_sweep_configs,
        )

        configs = explore_sweep_configs(
            num_processes=2,
            messages=4 if not with_crash else 3,
            collectors=explore_sweep_collectors(
                sorted(available_collectors() + list(CANARY_NAMES))
            ),
            with_crash=with_crash,
        )
        options = dict(max_executions=250, max_counterexamples=3)
        by_event = [explore(config, **options) for config in configs]
        monkeypatch.setattr(OracleStack, "check_events", state_audit_check_events)
        reference = [explore(config, **options) for config in configs]
        for config, walked, expected in zip(configs, by_event, reference):
            label = (config.protocol, config.collector)
            assert walked.stats.as_dict() == expected.stats.as_dict(), label
            assert walked.counterexamples == expected.counterexamples, label
        found = {c.violation.kind for walk in by_event for c in walk.counterexamples}
        assert found == {"safety", "optimality"}


class TestBudgetValidation:
    def test_a_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="got -1"):
            explore(_tiny(), max_executions=-1)

    def test_a_zero_budget_explores_nothing(self):
        stats = explore(_tiny(), max_executions=0).stats
        assert stats.executions == 0 and not stats.complete
        assert stats.frontier == ()


class TestShrinkBudget:
    def test_shrink_runs_at_most_max_attempts_candidates(self):
        from repro.explore import shrink

        config = ExploreConfig(
            num_processes=2, program=ring_program(2, 4), seed=3,
            collector="canary-unsafe",
        )
        first = explore(config).first
        for budget in (0, 1, 2):
            shrunk = shrink(
                first.config, first.schedule, first.violation, max_attempts=budget
            )
            assert shrunk.attempts == budget
            assert shrunk.violation.kind == first.violation.kind
