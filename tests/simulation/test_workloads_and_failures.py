"""Unit tests for workload generators and failure schedules."""

import hashlib
import random

import pytest

from repro.simulation.failures import Crash, FailureModelSpec, FailureSchedule
from repro.simulation.workloads import (
    Action,
    ActionKind,
    ClientServerWorkload,
    GossipWorkload,
    HierarchicalWorkload,
    PipelineWorkload,
    RingWorkload,
    ScriptedWorkload,
    UniformRandomWorkload,
    Workload,
    WorstCaseWorkload,
    ZipfClientServerWorkload,
    available_workloads,
    make_workload,
)
from repro.transport.base import AppMessage


class TestActions:
    def test_send_requires_target(self):
        with pytest.raises(ValueError):
            Action(1.0, 0, ActionKind.SEND)

    def test_actions_sort_by_time(self):
        actions = [Action(2.0, 0, ActionKind.CHECKPOINT), Action(1.0, 1, ActionKind.CHECKPOINT)]
        assert ScriptedWorkload(actions).generate(2, 10.0, random.Random(0))[0].time == 1.0

    def test_actions_are_not_implicitly_orderable(self):
        # The record's tuple ordering falls through to the ActionKind enum
        # (TypeError) whenever two actions share (time, pid); ordering is
        # explicit, via sort_key.
        with pytest.raises(TypeError):
            Action(1.0, 0, ActionKind.CHECKPOINT) < Action(1.0, 0, ActionKind.SEND, 1)

    def test_equal_timestamp_actions_sort_deterministically(self):
        actions = [
            Action(1.0, 0, ActionKind.SEND, 2),
            Action(1.0, 0, ActionKind.CHECKPOINT),
            Action(1.0, 0, ActionKind.SEND, 1),
        ]
        expected = [
            Action(1.0, 0, ActionKind.CHECKPOINT),
            Action(1.0, 0, ActionKind.SEND, 1),
            Action(1.0, 0, ActionKind.SEND, 2),
        ]
        for seed in range(5):
            shuffled = list(actions)
            random.Random(seed).shuffle(shuffled)
            assert ScriptedWorkload(shuffled).generate(3, 10.0, random.Random(0)) == expected
            assert sorted(shuffled, key=Action.sort_key) == expected


    def test_sort_key_orders_time_and_pid_ties(self):
        checkpoint = Action(1.0, 0, ActionKind.CHECKPOINT)
        send = Action(1.0, 0, ActionKind.SEND, 1)
        assert checkpoint.sort_key() == (1.0, 0, "checkpoint", -1)
        assert send.sort_key() == (1.0, 0, "send", 1)
        assert checkpoint.sort_key() < send.sort_key() < Action(1.0, 1, ActionKind.CHECKPOINT).sort_key()

    def test_of_key_inverts_sort_key(self):
        checkpoint, send = Action(1.5, 2, ActionKind.CHECKPOINT), Action(0.5, 0, ActionKind.SEND, 3)
        for action in (checkpoint, send):
            assert Action.of_key(action.sort_key()) == action
            assert type(Action.of_key(action.sort_key())) is Action

    def test_action_is_an_immutable_hashable_record(self):
        action = Action(1.0, 0, ActionKind.SEND, target=2)
        assert action == Action(time=1.0, pid=0, kind=ActionKind.SEND, target=2)
        assert Action(2.0, 1, ActionKind.CHECKPOINT).target is None
        assert len({action, Action(1.0, 0, ActionKind.SEND, 2)}) == 1
        with pytest.raises(AttributeError):
            action.time = 2.0
        with pytest.raises(AttributeError):
            action.extra = 1  # no instance dictionary either
        with pytest.raises(ValueError, match="target"):
            Action(1.0, 0, ActionKind.SEND, None)

    def test_app_message_is_an_immutable_hashable_record(self):
        message = AppMessage(7, 0, 1, (1, 0))
        assert message == AppMessage(message_id=7, sender=0, receiver=1, piggyback=(1, 0))
        assert (message.message_id, message.sender, message.receiver) == (7, 0, 1)
        assert len({message, AppMessage(7, 0, 1, (1, 0))}) == 1
        with pytest.raises(AttributeError):
            message.receiver = 2
        with pytest.raises(TypeError):
            AppMessage(7, 0, 1)  # every field is required


#: ``name -> (actions, sha256)`` of ``generate(6, 200.0, Random(11))`` followed
#: by the generator's next draw, captured on the commit before the generators
#: collected key tuples: pins every draw and the order of the actions.
_GENERATED_DIGESTS = {
    "client-server": (688, "f01abb48ac149558b97449d339bcb14cb229e05d2ec8065ffc9d71b429ec88a8"),
    "gossip": (735, "03cecfb6ec52f54c83ff365cd5e1b219ece65cc1c50dc50c18fe61f99301ce3a"),
    "hierarchical": (729, "eea94914f0cd6d902e0bad256d02de48313dd07f0a3807d5ec48472e819ddffc"),
    "pipeline": (611, "02846ae8f65e758b209ff138bd1ebef318ae41d6ca502886b9fe734aaf11c752"),
    "ring": (510, "fdbc055632caab549e7949d1cd91701e6b853f7160e1a3515419dfc077905f67"),
    "uniform-random": (714, "e36d9dcea797b53e75de289ddc43282beda5513592843327b56538a6f5d24475"),
    "worst-case": (72, "54aaf5e348794d56df4ad5fdf482a6c603383b8cbc92548e8da2aecb9e450a11"),
    "zipf-client-server": (608, "7d34b19734d0d2d33564082ed06a1dd3e0faddf0f002956294a7a434611af9d8"),
}


class TestGeneratedWorkloads:
    def test_every_registered_workload_is_pinned(self):
        assert sorted(_GENERATED_DIGESTS) == available_workloads()

    @pytest.mark.parametrize("name", sorted(_GENERATED_DIGESTS))
    def test_draws_and_order_are_those_of_the_parent_commit(self, name):
        rng = random.Random(11)
        actions = make_workload(name).generate(6, 200.0, rng)
        assert all(type(action) is Action for action in actions)
        text = repr([(a.time, a.pid, a.kind.value, a.target) for a in actions] + [rng.random()])
        assert (len(actions), hashlib.sha256(text.encode()).hexdigest()) == _GENERATED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(_GENERATED_DIGESTS))
    def test_keys_are_the_sorted_keys_of_the_generated_actions(self, name):
        workload = make_workload(name)
        keys = workload.keys(6, 200.0, random.Random(11))
        assert keys == sorted(keys)
        assert keys == [a.sort_key() for a in workload.generate(6, 200.0, random.Random(11))]

    def test_keys_is_the_one_abstract_method(self):
        assert Workload.__abstractmethods__ == frozenset({"keys"})

    @pytest.mark.parametrize(
        "workload",
        [
            UniformRandomWorkload(),
            ClientServerWorkload(),
            PipelineWorkload(),
            RingWorkload(),
            ZipfClientServerWorkload(),
            GossipWorkload(),
            HierarchicalWorkload(),
        ],
    )
    def test_actions_are_valid_and_within_duration(self, workload):
        actions = workload.generate(4, 100.0, random.Random(0))
        assert actions
        assert actions == sorted(actions, key=lambda a: (a.time, a.pid))
        for action in actions:
            assert 0.0 <= action.time < 100.0 + 2.0  # client/server replies may spill a bit
            assert 0 <= action.pid < 4
            if action.kind is ActionKind.SEND:
                assert action.target is not None and action.target != action.pid

    def test_generation_is_deterministic_per_seed(self):
        workload = UniformRandomWorkload()
        first = workload.generate(3, 50.0, random.Random(7))
        second = workload.generate(3, 50.0, random.Random(7))
        assert first == second

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            UniformRandomWorkload(mean_message_gap=0)
        with pytest.raises(ValueError):
            ClientServerWorkload(mean_request_gap=-1)
        with pytest.raises(ValueError):
            RingWorkload(period=0)
        with pytest.raises(ValueError):
            WorstCaseWorkload(round_length=0)

    def test_client_server_accepts_instant_server(self):
        # server_think_time = 0 is valid (and the error message says so).
        ClientServerWorkload(server_think_time=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            ClientServerWorkload(server_think_time=-0.1)

    def test_registry_builds_workloads_by_name(self):
        assert "uniform-random" in available_workloads()
        assert "scripted" not in available_workloads()  # needs an action list
        workload = make_workload("ring", period=2.0)
        assert isinstance(workload, RingWorkload)
        with pytest.raises(KeyError):
            make_workload("no-such-workload")

    def test_client_server_needs_two_processes(self):
        with pytest.raises(ValueError):
            ClientServerWorkload().generate(1, 10.0, random.Random(0))

    def test_client_server_traffic_is_centred_on_the_server(self):
        actions = ClientServerWorkload().generate(4, 200.0, random.Random(1))
        sends = [a for a in actions if a.kind is ActionKind.SEND]
        to_server = sum(1 for a in sends if a.target == 0)
        from_server = sum(1 for a in sends if a.pid == 0)
        assert to_server > 0 and from_server > 0
        assert to_server + from_server == len(sends)


class TestTopologyWorkloads:
    def test_registered_by_name(self):
        names = available_workloads()
        for name in ("zipf-client-server", "gossip", "hierarchical"):
            assert name in names
            assert make_workload(name).name == name

    def test_zipf_traffic_is_skewed_toward_the_hot_server(self):
        workload = ZipfClientServerWorkload(num_servers=2, skew=1.5)
        actions = workload.generate(6, 400.0, random.Random(3))
        requests = [
            a for a in actions
            if a.kind is ActionKind.SEND and a.pid >= 2 and a.target in (0, 1)
        ]
        hot = sum(1 for a in requests if a.target == 0)
        assert hot > len(requests) - hot  # rank 0 gets the majority

    def test_zipf_needs_a_client(self):
        with pytest.raises(ValueError, match="2 servers plus one client"):
            ZipfClientServerWorkload(num_servers=2).generate(
                2, 50.0, random.Random(0)
            )

    def test_gossip_rounds_send_fanout_messages(self):
        workload = GossipWorkload(fanout=3, mean_round_gap=5.0)
        actions = workload.generate(5, 100.0, random.Random(1))
        sends = [a for a in actions if a.kind is ActionKind.SEND]
        by_instant = {}
        for a in sends:
            by_instant.setdefault((a.time, a.pid), set()).add(a.target)
        for (_, pid), targets in by_instant.items():
            assert len(targets) == 3
            assert pid not in targets

    def test_gossip_fanout_clamped_to_peer_count(self):
        workload = GossipWorkload(fanout=5)
        actions = workload.generate(3, 60.0, random.Random(2))
        sends = [a for a in actions if a.kind is ActionKind.SEND]
        assert sends  # 2 peers available, fanout clamps instead of raising

    def test_hierarchical_traffic_is_mostly_local(self):
        workload = HierarchicalWorkload(region_size=3, local_bias=0.9)
        actions = workload.generate(6, 400.0, random.Random(4))
        sends = [a for a in actions if a.kind is ActionKind.SEND]
        local = sum(
            1 for a in sends
            if workload.region_of(a.pid, 6) == workload.region_of(a.target, 6)
        )
        assert local / len(sends) > 0.7

    def test_hierarchical_last_region_absorbs_tail(self):
        workload = HierarchicalWorkload(region_size=3)
        assert [workload.region_of(pid, 7) for pid in range(7)] == [
            0, 0, 0, 1, 1, 1, 1,
        ]

    def test_topology_parameter_validation(self):
        with pytest.raises(ValueError):
            ZipfClientServerWorkload(num_servers=0)
        with pytest.raises(ValueError):
            ZipfClientServerWorkload(skew=0.0)
        with pytest.raises(ValueError):
            GossipWorkload(fanout=0)
        with pytest.raises(ValueError):
            HierarchicalWorkload(local_bias=1.5)
        with pytest.raises(ValueError):
            HierarchicalWorkload(region_size=0)


class TestWorstCaseWorkload:
    def test_schedule_shape(self):
        workload = WorstCaseWorkload(round_length=10.0)
        actions = workload.generate(3, workload.required_duration(3), random.Random(0))
        checkpoints = [a for a in actions if a.kind is ActionKind.CHECKPOINT]
        sends = [a for a in actions if a.kind is ActionKind.SEND]
        # n rounds of n checkpoints plus the final round of n checkpoints.
        assert len(checkpoints) == 3 * 3 + 3
        # Each round one broadcaster sends to the n-1 others.
        assert len(sends) == 3 * 2

    def test_required_duration_covers_all_actions(self):
        workload = WorstCaseWorkload(round_length=5.0)
        duration = workload.required_duration(4)
        actions = workload.generate(4, duration, random.Random(0))
        assert max(a.time for a in actions) <= duration


class TestScriptedWorkload:
    def test_actions_returned_sorted(self):
        scripted = ScriptedWorkload(
            [Action(5.0, 0, ActionKind.CHECKPOINT), Action(1.0, 1, ActionKind.SEND, 0)]
        )
        actions = scripted.generate(2, 10.0, random.Random(0))
        assert [a.time for a in actions] == [1.0, 5.0]

    def test_rejects_out_of_range_processes(self):
        scripted = ScriptedWorkload([Action(1.0, 5, ActionKind.CHECKPOINT)])
        with pytest.raises(ValueError):
            scripted.generate(2, 10.0, random.Random(0))

    @pytest.mark.parametrize(
        "action, named",
        [
            (Action(1.0, -1, ActionKind.CHECKPOINT), "process -1"),
            (Action(1.0, -3, ActionKind.SEND, 1), "process -3"),
            (Action(1.0, 0, ActionKind.SEND, -2), "send target -2"),
            (Action(1.0, 0, ActionKind.SEND, 3), "send target 3"),
        ],
    )
    def test_rejects_a_negative_or_unknown_pid_or_target(self, action, named):
        scripted = ScriptedWorkload([Action(0.5, 1, ActionKind.CHECKPOINT), action])
        with pytest.raises(ValueError, match=named):
            scripted.keys(3, 10.0, random.Random(0))

    def test_a_negative_pid_runs_on_no_process(self):
        # Indexing the nodes with -1 and -3 would hand the actions to
        # processes 2 and 0: the script is refused before anything runs.
        from repro.simulation.runner import SimulationConfig, SimulationRunner

        scripted = ScriptedWorkload(
            [Action(1.0, -1, ActionKind.CHECKPOINT), Action(2.0, -3, ActionKind.SEND, 1)]
        )
        runner = SimulationRunner(SimulationConfig(3, 10.0, scripted))
        with pytest.raises(ValueError, match="process -1"):
            runner.run()
        assert runner.engine.processed_events == 0
        assert [node.messages_sent for node in runner.nodes] == [0, 0, 0]


class TestFailureSchedules:
    def test_of_sorts_crashes(self):
        schedule = FailureSchedule.of([(9.0, 1), (3.0, 0)])
        assert [c.time for c in schedule] == [3.0, 9.0]
        assert len(schedule) == 2

    def test_none_is_empty(self):
        assert len(FailureSchedule.none()) == 0

    def test_random_schedule_respects_bounds(self):
        schedule = FailureSchedule.random(
            num_processes=4, duration=100.0, count=5, rng=random.Random(3)
        )
        assert len(schedule) == 5
        for crash in schedule:
            assert 0 <= crash.pid < 4
            assert 20.0 <= crash.time <= 100.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FailureSchedule.random(
                num_processes=2, duration=10.0, count=-1, rng=random.Random(0)
            )

    def test_invalid_duration_and_warmup_rejected(self):
        with pytest.raises(ValueError):
            FailureSchedule.random(
                num_processes=2, duration=0.0, count=1, rng=random.Random(0)
            )
        with pytest.raises(ValueError):
            FailureSchedule.random(
                num_processes=2, duration=10.0, count=1, rng=random.Random(0),
                warmup_fraction=1.0,
            )

    def test_boundary_time_draws_are_redrawn(self):
        # rng.uniform(start, duration) can return exactly `duration`, but
        # crash schedules are end-exclusive like workload actions: a crash at
        # the instant the run ends triggers a recovery no execution observes.
        class BoundaryRng(random.Random):
            def __init__(self, values):
                super().__init__(0)
                self._values = list(values)

            def uniform(self, a, b):
                return self._values.pop(0) if self._values else super().uniform(a, b)

            def randrange(self, *args, **kwargs):
                return 0

        rng = BoundaryRng([100.0, 50.0, 50.0, 60.0])  # boundary, ok, duplicate, ok
        schedule = FailureSchedule.random(
            num_processes=4, duration=100.0, count=2, rng=rng
        )
        assert [crash.time for crash in schedule] == [50.0, 60.0]
        assert all(crash.time < 100.0 for crash in schedule)

    def test_crashes_are_never_at_or_past_duration(self):
        for seed in range(25):
            schedule = FailureSchedule.random(
                num_processes=3, duration=50.0, count=4, rng=random.Random(seed)
            )
            assert all(crash.time < 50.0 for crash in schedule)

    def test_duplicate_instants_for_a_pid_are_rejected(self):
        class ConstantRng(random.Random):
            def uniform(self, a, b):
                return 30.0

            def randrange(self, *args, **kwargs):
                return 1

        with pytest.raises(RuntimeError):
            FailureSchedule.random(
                num_processes=2, duration=100.0, count=2, rng=ConstantRng(0)
            )

    def test_crash_ordering(self):
        assert Crash(1.0, 3) < Crash(2.0, 0)


class TestChurnSchedules:
    def test_every_process_churns_repeatedly(self):
        schedule = FailureSchedule.churn(
            num_processes=3,
            duration=1000.0,
            rng=random.Random(0),
            hazard_rate=0.02,
        )
        per_pid = {pid: 0 for pid in range(3)}
        for crash in schedule:
            per_pid[crash.pid] += 1
        # Mean inter-crash time 50 over 800 post-warmup seconds: every
        # process crashes many times — churn, not a one-off failure.
        assert all(count >= 3 for count in per_pid.values())

    def test_respects_bounds_and_warmup(self):
        for seed in range(10):
            schedule = FailureSchedule.churn(
                num_processes=4,
                duration=200.0,
                rng=random.Random(seed),
                hazard_rate=0.05,
                warmup_fraction=0.25,
            )
            assert all(50.0 < crash.time < 200.0 for crash in schedule)
            assert list(schedule) == sorted(schedule)

    def test_min_gap_spaces_consecutive_crashes(self):
        schedule = FailureSchedule.churn(
            num_processes=1,
            duration=2000.0,
            rng=random.Random(3),
            hazard_rate=0.5,
            min_gap=10.0,
        )
        times = [crash.time for crash in schedule]
        assert len(times) > 5
        assert all(b - a >= 10.0 for a, b in zip(times, times[1:]))

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            FailureSchedule.churn(
                num_processes=2, duration=10.0, rng=rng, hazard_rate=0.0
            )
        with pytest.raises(ValueError):
            FailureSchedule.churn(
                num_processes=2, duration=0.0, rng=rng, hazard_rate=0.1
            )
        with pytest.raises(ValueError):
            FailureSchedule.churn(
                num_processes=2, duration=10.0, rng=rng, hazard_rate=0.1, min_gap=-1.0
            )
        with pytest.raises(ValueError):
            FailureSchedule.churn(
                num_processes=2,
                duration=10.0,
                rng=rng,
                hazard_rate=0.1,
                warmup_fraction=1.0,
            )


class TestFailureModelSpec:
    def test_churn_spec_materialises_a_churn_schedule(self):
        spec = FailureModelSpec.of("churn", {"hazard_rate": 0.05})
        schedule = spec.schedule(
            num_processes=3, duration=400.0, rng=random.Random(1)
        )
        assert len(schedule) > 0
        assert all(crash.time < 400.0 for crash in schedule)

    def test_crashes_spec_matches_random_schedule(self):
        spec = FailureModelSpec.of("crashes", {"count": 3})
        direct = FailureSchedule.random(
            num_processes=4, duration=100.0, count=3, rng=random.Random(7)
        )
        via_spec = spec.schedule(
            num_processes=4, duration=100.0, rng=random.Random(7)
        )
        assert via_spec == direct

    def test_zero_count_is_no_failures(self):
        spec = FailureModelSpec.of("crashes")
        assert (
            spec.schedule(num_processes=2, duration=10.0, rng=random.Random(0))
            == FailureSchedule.none()
        )

    def test_label_is_canonical(self):
        spec = FailureModelSpec.of(
            "churn", {"warmup_fraction": 0.1, "hazard_rate": 0.05}
        )
        assert spec.label() == "churn(hazard_rate=0.05,warmup_fraction=0.1)"

    def test_unknown_model_and_parameters_fail_fast(self):
        with pytest.raises(ValueError):
            FailureModelSpec.of("meteor-strike")
        with pytest.raises(ValueError):
            FailureModelSpec.of("churn", {"hazard": 0.1})
        with pytest.raises(ValueError):
            FailureModelSpec.of("churn", {"hazard_rate": -1.0})

    def test_specs_are_hashable_axis_entries(self):
        axis = (
            0,
            2,
            FailureModelSpec.of("churn", {"hazard_rate": 0.05}),
            FailureModelSpec.of("churn", {"hazard_rate": 0.1}),
        )
        assert len(set(axis)) == 4
