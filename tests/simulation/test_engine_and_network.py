"""Unit tests for the discrete-event engine and the message transport."""

import pytest

from repro.simulation.channels import DuplicatingChannel, GilbertElliottChannel
from repro.simulation.engine import SimulationEngine, StopReason
from repro.simulation.network import Network, NetworkConfig


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(5.0, lambda: order.append("b"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.schedule_at(9.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9.0
        assert engine.processed_events == 3

    def test_ties_break_by_scheduling_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(1.0, lambda: order.append("first"))
        engine.schedule_at(1.0, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_run_until_stops_before_later_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(True))
        engine.run(until=5.0)
        assert fired == []
        assert engine.now == 5.0
        assert engine.pending_events() == 1
        engine.run()
        assert fired == [True]

    def test_schedule_after_and_nested_scheduling(self):
        engine = SimulationEngine()
        times = []

        def tick():
            times.append(engine.now)
            if len(times) < 3:
                engine.schedule_after(2.0, tick)

        engine.schedule_after(1.0, tick)
        engine.run()
        assert times == [1.0, 3.0, 5.0]

    def test_scheduling_in_the_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_after(-1.0, lambda: None)

    def test_max_events_and_step(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        engine.run(max_events=2)
        assert engine.processed_events == 2
        assert engine.step()
        assert not engine.step()


class TestEngineStopSemantics:
    """The explicit stop/advance contract of SimulationEngine.run."""

    def test_exhausted_advances_to_until(self):
        engine = SimulationEngine()
        engine.schedule_at(2.0, lambda: None)
        assert engine.run(until=10.0) is StopReason.EXHAUSTED
        assert engine.now == 10.0

    def test_exhausted_without_until_keeps_last_event_time(self):
        engine = SimulationEngine()
        engine.schedule_at(2.0, lambda: None)
        assert engine.run() is StopReason.EXHAUSTED
        assert engine.now == 2.0

    def test_until_reported_when_events_remain_beyond_it(self):
        engine = SimulationEngine()
        engine.schedule_at(2.0, lambda: None)
        engine.schedule_at(8.0, lambda: None)
        assert engine.run(until=5.0) is StopReason.UNTIL
        assert engine.now == 5.0
        assert engine.pending_events() == 1

    def test_max_events_stop_does_not_advance_to_until(self):
        # The documented gotcha: stopping on the event budget leaves the clock
        # strictly before `until` because events are still pending there;
        # jumping to `until` would misorder the next run() call.
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        assert engine.run(until=10.0, max_events=2) is StopReason.MAX_EVENTS
        assert engine.now == 2.0
        assert engine.pending_events() == 1
        # Resuming processes the leftover event and then reaches `until`.
        assert engine.run(until=10.0) is StopReason.EXHAUSTED
        assert engine.now == 10.0

    def test_until_in_the_past_never_rewinds_the_clock(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        assert engine.now == 5.0
        engine.schedule_at(6.0, lambda: None)
        assert engine.run(until=3.0) is StopReason.UNTIL
        assert engine.now == 5.0  # unchanged, not rewound to 3.0
        engine.run()
        assert engine.now == 6.0

    def test_until_wins_when_budget_spent_and_next_event_is_beyond_until(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(9.0, lambda: None)
        # The budget is spent, but everything at or before `until` was done,
        # so the caller's request to advance to `until` is honoured.
        assert engine.run(until=5.0, max_events=1) is StopReason.UNTIL
        assert engine.now == 5.0

    def test_resumed_runs_reach_until_in_bounded_steps(self):
        engine = SimulationEngine()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        reasons = []
        while True:
            reason = engine.run(until=6.0, max_events=1)
            reasons.append(reason)
            if reason is not StopReason.MAX_EVENTS:
                break
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert engine.now == 6.0
        assert reasons[-1] is StopReason.EXHAUSTED
        assert all(r is StopReason.MAX_EVENTS for r in reasons[:-1])

    def test_seeded_rng_is_deterministic(self):
        a = SimulationEngine(seed=42).rng.random()
        b = SimulationEngine(seed=42).rng.random()
        assert a == b


class TestNetwork:
    def _build(self, **config):
        engine = SimulationEngine(seed=1)
        network = Network(engine, NetworkConfig(**config))
        delivered = []
        network.on_app_delivery(delivered.append)
        controls = []
        network.on_control_delivery(lambda s, r, p: controls.append((s, r, p)))
        return engine, network, delivered, controls

    def test_app_message_delivery(self):
        engine, network, delivered, _ = self._build(jitter=0.0)
        network.send_app_message(0, 1, (1, 0))
        engine.run()
        assert len(delivered) == 1
        assert delivered[0].piggyback == (1, 0)
        assert network.stats.app_delivered == 1

    def test_message_loss(self):
        engine, network, delivered, _ = self._build(drop_probability=0.999)
        for _ in range(20):
            network.send_app_message(0, 1, (0, 0))
        engine.run()
        assert network.stats.app_dropped > 0
        assert len(delivered) == network.stats.app_delivered

    def test_drop_in_flight_discards_pending_messages(self):
        engine, network, delivered, _ = self._build(base_latency=5.0, jitter=0.0)
        network.send_app_message(0, 1, (0, 0))
        assert network.in_flight_count() == 1
        assert network.drop_in_flight() == 1
        engine.run()
        assert delivered == []
        assert network.stats.app_discarded_by_recovery == 1

    def test_control_messages_are_reliable(self):
        engine, network, _, controls = self._build(drop_probability=0.9)
        for _ in range(10):
            network.send_control_message(0, 1, {"round": 1})
        engine.run()
        assert len(controls) == 10
        assert network.stats.control_delivered == 10

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(drop_probability=1.5)
        with pytest.raises(ValueError):
            NetworkConfig(base_latency=-1.0)

    def test_delivery_without_handler_fails_loudly(self):
        engine = SimulationEngine()
        network = Network(engine)
        network.send_app_message(0, 1, (0,))
        with pytest.raises(RuntimeError):
            engine.run()


class TestPerLinkDeterminism:
    """Regression tests for the per-link random streams.

    Latency/loss draws are derived per directed link from the engine seed;
    traffic (or a fault model) on one link must never perturb the draws of
    another — the same isolation the control plane always had.
    """

    @staticmethod
    def _delivery_times(config, traffic):
        """Run ``traffic(network, engine)`` and map message_id -> arrival."""
        engine = SimulationEngine(seed=123)
        network = Network(engine, config)
        arrivals = {}
        network.on_app_delivery(
            lambda m: arrivals.setdefault((m.sender, m.receiver, m.message_id), engine.now)
        )
        network.on_duplicate_delivery(lambda m: None)
        network.on_control_delivery(lambda s, r, p: None)
        traffic(network, engine)
        engine.run()
        return arrivals

    def test_extra_traffic_on_one_link_leaves_other_links_untouched(self):
        def base(network, engine):
            for _ in range(5):
                network.send_app_message(2, 3, (0, 0, 0, 0))

        def with_noise(network, engine):
            for _ in range(5):
                network.send_app_message(0, 1, (0, 0, 0, 0))  # extra link traffic
                network.send_app_message(2, 3, (0, 0, 0, 0))

        quiet = self._delivery_times(NetworkConfig(), base)
        noisy = self._delivery_times(NetworkConfig(), with_noise)
        quiet_23 = sorted(t for (s, r, _), t in quiet.items() if (s, r) == (2, 3))
        noisy_23 = sorted(t for (s, r, _), t in noisy.items() if (s, r) == (2, 3))
        assert quiet_23 == noisy_23

    def test_fault_model_perturbs_only_its_own_draws(self):
        """A channel model changes per-link draw *counts*; links still do not
        interfere: with bursty loss on, the surviving deliveries on (2, 3)
        are the same whether or not (0, 1) carries traffic."""
        config = NetworkConfig(channel=GilbertElliottChannel(loss_bad=0.8))

        def base(network, engine):
            for _ in range(30):
                network.send_app_message(2, 3, (0, 0, 0, 0))

        def with_noise(network, engine):
            for _ in range(30):
                network.send_app_message(0, 1, (0, 0, 0, 0))
                network.send_app_message(2, 3, (0, 0, 0, 0))

        quiet = self._delivery_times(config, base)
        noisy = self._delivery_times(config, with_noise)
        quiet_23 = sorted(t for (s, r, _), t in quiet.items() if (s, r) == (2, 3))
        noisy_23 = sorted(t for (s, r, _), t in noisy.items() if (s, r) == (2, 3))
        assert quiet_23 == noisy_23

    def test_control_traffic_does_not_perturb_app_draws(self):
        def base(network, engine):
            for _ in range(5):
                network.send_app_message(0, 1, (0, 0, 0, 0))

        def with_control(network, engine):
            for _ in range(5):
                network.send_control_message(0, 1, "gc-round")
                network.send_app_message(0, 1, (0, 0, 0, 0))

        assert sorted(self._delivery_times(NetworkConfig(), base).values()) == sorted(
            t
            for (s, r, _), t in self._delivery_times(
                NetworkConfig(), with_control
            ).items()
            if (s, r) == (0, 1)
        )


class TestDropInFlightAccounting:
    """The satellite: drop_in_flight stats cover every copy, duplicates too."""

    def test_discards_count_every_copy(self):
        engine = SimulationEngine(seed=1)
        network = Network(
            engine,
            NetworkConfig(
                base_latency=5.0,
                jitter=0.0,
                channel=DuplicatingChannel(duplicate_probability=1.0, copies=3),
            ),
        )
        network.on_app_delivery(lambda m: None)
        network.on_duplicate_delivery(lambda m: None)
        for _ in range(4):
            network.send_app_message(0, 1, (0, 0))
        assert network.stats.app_sent == 4
        assert network.in_flight_count() == 12  # 3 copies per message
        assert network.drop_in_flight() == 12
        assert network.stats.app_discarded_by_recovery == 12
        assert network.in_flight_count() == 0
        engine.run()
        # Nothing was delivered: every copy was discarded in transit.
        assert network.stats.app_delivered == 0
        assert network.stats.app_duplicates_delivered == 0

    def test_counters_reconcile_after_partial_delivery(self):
        engine = SimulationEngine(seed=1)
        network = Network(engine, NetworkConfig(base_latency=5.0, jitter=0.0))
        delivered = []
        network.on_app_delivery(delivered.append)
        network.send_app_message(0, 1, (0, 0))
        engine.run()  # first message arrives
        network.send_app_message(0, 1, (0, 0))
        discarded = network.drop_in_flight()  # second is still in transit
        assert discarded == 1
        stats = network.stats
        assert stats.app_sent == 2
        assert stats.app_delivered == len(delivered) == 1
        assert stats.app_discarded_by_recovery == 1
        assert (
            stats.app_sent
            == stats.app_delivered
            + stats.app_dropped
            + stats.app_blocked_by_partition
            + stats.app_discarded_by_recovery
        )
        # Idempotent on an empty transport.
        assert network.drop_in_flight() == 0
        assert stats.app_discarded_by_recovery == 1
