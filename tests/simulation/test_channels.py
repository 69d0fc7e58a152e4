"""Unit tests for the network fault-model library (`repro.simulation.channels`)."""

import random

import pytest

from repro.simulation.channels import (
    ChannelModel,
    DuplicatingChannel,
    GilbertElliottChannel,
    LatencyMatrixChannel,
    Partition,
    PartitionSchedule,
    UniformChannel,
    channel_from_mapping,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import (
    LinkFates,
    Network,
    NetworkConfig,
    network_config_from_mapping,
)
from repro.simulation.runner import SimulationConfig, run_simulation
from repro.simulation.workloads import UniformRandomWorkload


def _run(network: NetworkConfig, *, seed: int = 11, duration: float = 60.0, **kw):
    return run_simulation(
        SimulationConfig(
            num_processes=4,
            duration=duration,
            workload=UniformRandomWorkload(),
            network=network,
            seed=seed,
            audit="safety",
            **kw,
        )
    )


class TestUniformChannel:
    def test_explicit_uniform_channel_is_byte_identical_to_default(self):
        """NetworkConfig scalars and an explicit UniformChannel draw the same
        streams in the same order — the refactor's compatibility anchor."""
        implicit = _run(NetworkConfig())
        explicit = _run(NetworkConfig(channel=UniformChannel()))
        assert implicit.summary() == explicit.summary()
        assert implicit.retained_final == explicit.retained_final
        assert [s.retained_per_process for s in implicit.samples] == [
            s.retained_per_process for s in explicit.samples
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformChannel(base_latency=-1.0)
        with pytest.raises(ValueError):
            UniformChannel(drop_probability=1.0)

    def test_sample_loses_and_delivers(self):
        channel = UniformChannel(drop_probability=0.5)
        rng = random.Random(0)
        fates = [channel.sample(None, 0, 1, rng) for _ in range(200)]
        lost = sum(1 for f in fates if not f)
        assert 0 < lost < 200
        for fate in fates:
            assert all(1.0 <= latency <= 1.5 for latency in fate)


class TestGilbertElliott:
    def test_loss_is_bursty(self):
        """With a sticky bad state losses arrive in runs, not i.i.d."""
        channel = GilbertElliottChannel(
            loss_good=0.0, loss_bad=1.0, p_good_to_bad=0.1, p_bad_to_good=0.2
        )
        state = channel.initial_state()
        rng = random.Random(42)
        outcomes = [bool(channel.sample(state, 0, 1, rng)) for _ in range(2000)]
        losses = outcomes.count(False)
        assert losses > 0
        # Expected loss concentration p_gb/(p_gb+p_bg) = 1/3; a run this long
        # cannot be loss-free nor all-loss.
        assert 0.15 < losses / len(outcomes) < 0.55
        # Burstiness: the longest loss run must exceed 1 (mean burst = 5).
        longest, current = 0, 0
        for delivered in outcomes:
            current = 0 if delivered else current + 1
            longest = max(longest, current)
        assert longest >= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottChannel(loss_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottChannel(p_good_to_bad=-0.1)

    def test_simulation_stays_safe_under_bursty_loss(self):
        result = _run(
            NetworkConfig(channel=GilbertElliottChannel(loss_bad=0.6)), seed=3
        )
        assert result.messages_dropped > 0
        assert result.all_audits_safe


class TestDuplicatingChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DuplicatingChannel(copies=1)
        with pytest.raises(ValueError):
            DuplicatingChannel(channel=DuplicatingChannel())
        with pytest.raises(ValueError):
            DuplicatingChannel(duplicate_probability=1.5)

    def test_duplicates_are_delivered_and_counted(self):
        result = _run(
            NetworkConfig(
                channel=DuplicatingChannel(duplicate_probability=0.5, copies=3)
            ),
            seed=5,
        )
        assert result.messages_duplicated > 0
        # Duplicates are causally neutral: the audits stay clean.
        assert result.all_audits_safe

    def test_duplicate_deliveries_reach_the_duplicate_handler(self):
        engine = SimulationEngine(seed=2)
        network = Network(
            engine,
            NetworkConfig(
                channel=DuplicatingChannel(duplicate_probability=1.0, copies=2)
            ),
        )
        delivered, duplicates = [], []
        network.on_app_delivery(delivered.append)
        network.on_duplicate_delivery(duplicates.append)
        for _ in range(10):
            network.send_app_message(0, 1, (0, 0))
        engine.run()
        assert len(delivered) == 10
        assert len(duplicates) == 10
        assert network.stats.app_delivered == 10
        assert network.stats.app_duplicates_delivered == 10

    def test_duplicates_without_handler_fail_loudly(self):
        engine = SimulationEngine(seed=2)
        network = Network(
            engine,
            NetworkConfig(
                channel=DuplicatingChannel(duplicate_probability=1.0, copies=2)
            ),
        )
        network.on_app_delivery(lambda message: None)
        network.send_app_message(0, 1, (0, 0))
        with pytest.raises(RuntimeError):
            engine.run()

    @pytest.mark.parametrize(
        "channel", [UniformChannel(drop_probability=0.2), GilbertElliottChannel()]
    )
    def test_only_a_duplicating_channel_keeps_delivered_ids(self, channel):
        """Without duplication every arrival is a first copy: no id is kept."""
        fates = LinkFates(1, NetworkConfig(channel=channel))
        assert [fates.is_first_copy(7), fates.is_first_copy(7)] == [True, True]
        assert fates._received is None
        duplicating = LinkFates(1, NetworkConfig(channel=DuplicatingChannel(channel)))
        assert [duplicating.is_first_copy(7), duplicating.is_first_copy(7)] == [True, False]
        assert duplicating.stats.app_duplicates_delivered == 1


class TestLatencyMatrix:
    def test_asymmetric_latencies_apply_per_link(self):
        channel = LatencyMatrixChannel.of([[0.0, 1.0], [9.0, 0.0]], jitter=0.0)
        engine = SimulationEngine(seed=0)
        network = Network(engine, NetworkConfig(channel=channel))
        arrivals = []
        network.on_app_delivery(lambda m: arrivals.append((m.sender, engine.now)))
        network.send_app_message(0, 1, (0, 0))
        network.send_app_message(1, 0, (0, 0))
        engine.run()
        assert sorted(arrivals) == [(0, 1.0), (1, 9.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyMatrixChannel.of([[0.0, 1.0]])  # not square
        with pytest.raises(ValueError):
            LatencyMatrixChannel.of([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            LatencyMatrixChannel(latencies=())

    def test_undersized_matrix_rejected_at_config_time(self):
        # The only time there is: the capacity never grows past the config's.
        channel = LatencyMatrixChannel.of([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="2x2.*pid 2 has no latency row"):
            SimulationConfig(
                num_processes=3,
                duration=10.0,
                workload=UniformRandomWorkload(),
                network=NetworkConfig(channel=channel),
            )


class TestPartitions:
    def test_separation_semantics(self):
        partition = Partition(start=10.0, end=20.0, groups=((0, 1),))
        assert partition.separates(0, 2)
        assert not partition.separates(0, 1)
        assert not partition.separates(2, 3)  # both in the implicit block
        assert partition.active_at(10.0) and not partition.active_at(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(start=5.0, end=5.0, groups=((0,),))
        with pytest.raises(ValueError):
            Partition(start=0.0, end=1.0, groups=())
        with pytest.raises(ValueError):
            Partition(start=0.0, end=1.0, groups=((0,), (0, 1)))  # overlap
        schedule = PartitionSchedule.of([(0.0, 1.0, ((0, 5),))])
        with pytest.raises(ValueError):
            schedule.validate_for(4)

    def test_cross_cut_sends_are_blocked_while_active(self):
        schedule = PartitionSchedule.of([(10.0, 20.0, ((0,),))])
        engine = SimulationEngine(seed=0)
        network = Network(engine, NetworkConfig(jitter=0.0, partitions=schedule))
        delivered = []
        network.on_app_delivery(delivered.append)
        engine.schedule_at(5.0, lambda: network.send_app_message(0, 1, (0, 0)))
        engine.schedule_at(15.0, lambda: network.send_app_message(0, 1, (0, 0)))
        engine.schedule_at(15.0, lambda: network.send_app_message(1, 2, (0, 0)))
        engine.schedule_at(25.0, lambda: network.send_app_message(0, 1, (0, 0)))
        engine.run()
        assert len(delivered) == 3  # the cross-cut send at t=15 was lost
        assert network.stats.app_blocked_by_partition == 1
        assert network.stats.partition_events == 2  # one cut, one heal

    def test_control_messages_cross_partitions(self):
        """The coordinated baselines assume a reliable control plane."""
        schedule = PartitionSchedule.of([(0.0, 50.0, ((0,),))])
        engine = SimulationEngine(seed=0)
        network = Network(engine, NetworkConfig(partitions=schedule))
        controls = []
        network.on_control_delivery(lambda s, r, p: controls.append((s, r)))
        network.send_control_message(0, 1, "marker")
        engine.run()
        assert controls == [(0, 1)]

    def test_partitioned_run_recovers_and_heals(self):
        result = _run(
            NetworkConfig(
                partitions=PartitionSchedule.of([(20.0, 40.0, ((0, 1),))])
            ),
            seed=9,
        )
        assert result.messages_blocked_by_partition > 0
        assert result.all_audits_safe


class TestFifoDiscipline:
    def test_fifo_preserves_per_link_send_order(self):
        engine = SimulationEngine(seed=7)
        network = Network(
            engine, NetworkConfig(base_latency=1.0, jitter=50.0, fifo=True)
        )
        order = []
        network.on_app_delivery(lambda m: order.append(m.message_id))
        for _ in range(20):
            network.send_app_message(0, 1, (0, 0))
        engine.run()
        assert order == sorted(order)

    def test_non_fifo_reorders_under_heavy_jitter(self):
        engine = SimulationEngine(seed=7)
        network = Network(engine, NetworkConfig(base_latency=1.0, jitter=50.0))
        order = []
        network.on_app_delivery(lambda m: order.append(m.message_id))
        for _ in range(20):
            network.send_app_message(0, 1, (0, 0))
        engine.run()
        assert order != sorted(order)


class TestDescribeAndMappings:
    @pytest.mark.parametrize(
        "channel",
        [
            UniformChannel(base_latency=2.0, jitter=0.25, drop_probability=0.1),
            GilbertElliottChannel(loss_bad=0.7, p_bad_to_good=0.4),
            DuplicatingChannel(
                channel=GilbertElliottChannel(), duplicate_probability=0.3, copies=4
            ),
            LatencyMatrixChannel.of([[0.0, 2.0], [3.0, 0.0]], jitter=0.1),
        ],
    )
    def test_channel_describe_round_trips(self, channel):
        assert channel_from_mapping(channel.describe()) == channel

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            channel_from_mapping({"kind": "quantum"})
        with pytest.raises(ValueError):
            channel_from_mapping({"base_latency": 1.0})
        with pytest.raises(ValueError):
            channel_from_mapping({"kind": "uniform", "warp": 9})

    def test_default_network_describe_keeps_v1_shape(self):
        """Fault-model keys must not leak into default descriptions: cell ids
        and trace headers of pre-fault-model studies depend on this shape."""
        assert NetworkConfig().describe() == {
            "base_latency": 1.0,
            "jitter": 0.5,
            "drop_probability": 0.0,
        }

    def test_network_config_describe_round_trips(self):
        config = NetworkConfig(
            channel=GilbertElliottChannel(loss_bad=0.9),
            partitions=PartitionSchedule.of([(5.0, 9.0, ((0, 2),))]),
            fifo=True,
        )
        rebuilt = network_config_from_mapping(config.describe())
        assert rebuilt == config

    def test_network_config_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            network_config_from_mapping({"bandwidth": 10})

    def test_models_are_hashable_axis_entries(self):
        axis = (
            NetworkConfig(),
            NetworkConfig(channel=GilbertElliottChannel()),
            NetworkConfig(fifo=True),
        )
        assert len(set(axis)) == 3

    def test_channel_model_is_abstract(self):
        with pytest.raises(TypeError):
            ChannelModel()  # type: ignore[abstract]
