"""The engine's two sources fire in the one order an all-heap engine produces.

``schedule_sorted`` keeps a time-ordered batch beside the heap; everything
observable — firing order with ties, clock, stop reasons, counters, the two
introspection calls — must be what pushing every entry through
``schedule_at`` gives.  The all-heap engine the simulator had before lives on
here as the reference.
"""

import heapq
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.engine import SimulationEngine, StopReason
from repro.simulation.node import SimulationNode
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.workloads import ActionKind, UniformRandomWorkload, Workload


class HeapOnlyEngine:
    """The reference: every entry goes through the heap, a batch one by one."""

    def __init__(self):
        self.now, self.processed_events, self._sequence, self._heap = 0.0, 0, 0, []

    def schedule_at(self, time, callback):
        assert time >= self.now
        heapq.heappush(self._heap, (time, self._sequence, callback))
        self._sequence += 1

    def schedule_after(self, delay, callback):
        self.schedule_at(self.now + delay, callback)

    def schedule_sorted(self, entries):
        for time, callback in list(entries):
            self.schedule_at(time, callback)

    def pending_events(self):
        return len(self._heap)

    def peek_time(self):
        return self._heap[0][0] if self._heap else None

    def run(self, until=None, max_events=None):
        executed = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = max(self.now, until)
                return StopReason.UNTIL
            if max_events is not None and executed >= max_events:
                return StopReason.MAX_EVENTS
            self.step()
            executed += 1
        if until is not None:
            self.now = max(self.now, until)
        return StopReason.EXHAUSTED

    def step(self):
        if not self._heap:
            return False
        self.now, _, callback = heapq.heappop(self._heap)
        callback()
        self.processed_events += 1
        return True


# Few distinct instants, so both sources keep meeting at equal timestamps.
_times = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0])
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
_sorted_delays = st.lists(_delays, max_size=4).map(sorted)
#: What one callback does when it fires, besides logging itself.
_spawn = st.one_of(
    st.tuples(st.just("at"), _delays),
    st.tuples(st.just("after"), _delays),
    st.tuples(st.just("sorted"), _sorted_delays),  # a batch from inside a callback
    st.tuples(st.just("run"), st.integers(0, 2)),  # the engine run re-entrantly
)
_op = st.one_of(
    st.tuples(st.just("run"), st.none() | _times, st.none() | st.integers(0, 4)),
    st.tuples(st.just("step")),
    st.tuples(st.just("sorted"), _sorted_delays),  # a second batch, the first pending
)
_scripts = st.fixed_dictionaries(
    {
        "before": st.lists(_times, max_size=4),
        "batch": st.lists(_times, max_size=10).map(sorted),
        "after": st.lists(_times, max_size=4),
        "spawns": st.lists(st.lists(_spawn, max_size=3), max_size=12),
        "ops": st.lists(_op, max_size=8),
    }
)


def _play(engine, script):
    """Drive ``script`` on ``engine``: the firing log and what every op left behind."""
    fired, spawns = [], iter(script["spawns"])

    def make(label):
        def callback():
            fired.append((label, engine.now))
            # The k-th callback to fire, whichever it is, acts out the k-th plan.
            for n, (mode, argument) in enumerate(next(spawns, ())):
                child = f"{label}.{n}"
                if mode == "at":
                    engine.schedule_at(engine.now + argument, make(child))
                elif mode == "after":
                    engine.schedule_after(argument, make(child))
                elif mode == "sorted":
                    engine.schedule_sorted(
                        (engine.now + delay, make(f"{child}.{k}"))
                        for k, delay in enumerate(argument)
                    )
                else:
                    fired.append((child, engine.run(max_events=argument)))

        return callback

    for n, time in enumerate(script["before"]):
        engine.schedule_at(time, make(f"before{n}"))
    engine.schedule_sorted((time, make(f"batch{n}")) for n, time in enumerate(script["batch"]))
    for n, time in enumerate(script["after"]):
        engine.schedule_at(time, make(f"after{n}"))
    observed = []
    for index, op in enumerate([*script["ops"], ("run", None, None)]):
        if op[0] == "run":
            outcome = engine.run(until=op[1], max_events=op[2])
        elif op[0] == "step":
            outcome = engine.step()
        else:
            outcome = engine.schedule_sorted(
                [(engine.now + delay, make(f"op{index}.{k}")) for k, delay in enumerate(op[1])]
            )
        observed.append(
            (outcome, engine.now, engine.processed_events, engine.peek_time(), engine.pending_events())
        )
    return fired, observed


class TestSortedStreamAgainstTheHeapOnlyReference:
    @settings(max_examples=400, deadline=None)
    @given(_scripts)
    def test_every_observable_is_the_all_heap_engines(self, script):
        assert _play(SimulationEngine(), script) == _play(HeapOnlyEngine(), script)

    def test_the_final_run_leaves_nothing_pending(self):
        script = {"before": [1.0], "batch": [1.0, 1.0, 2.0], "after": [1.0], "spawns": [], "ops": []}
        fired, observed = _play(SimulationEngine(), script)
        # Ties fire in scheduling order across the two sources.
        assert [label for label, _ in fired] == ["before0", "batch0", "batch1", "after0", "batch2"]
        assert observed == [(StopReason.EXHAUSTED, 2.0, 5, None, 0)]


class TestSortedStream:
    def test_step_peek_and_pending_see_the_stream(self):
        engine, order = SimulationEngine(), []
        engine.schedule_at(2.0, lambda: order.append("heap"))
        engine.schedule_sorted([(1.0, lambda: order.append("s1")), (3.0, lambda: order.append("s3"))])
        assert engine.pending_events() == 3
        assert engine.peek_time() == 1.0
        assert engine.step() and order == ["s1"] and engine.now == 1.0
        assert engine.peek_time() == 2.0
        assert engine.step() and engine.step() and not engine.step()
        assert order == ["s1", "heap", "s3"]
        assert engine.pending_events() == 0 and engine.peek_time() is None
        assert engine.processed_events == 3

    def test_run_until_stops_at_a_stream_entry_beyond_it(self):
        engine, fired = SimulationEngine(), []
        engine.schedule_sorted([(10.0, lambda: fired.append(True))])
        assert engine.run(until=5.0) is StopReason.UNTIL
        assert fired == [] and engine.now == 5.0 and engine.pending_events() == 1
        assert engine.run() is StopReason.EXHAUSTED and fired == [True]

    def test_a_batch_takes_the_sequence_numbers_schedule_at_would_give(self):
        engine, order = SimulationEngine(), []
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.schedule_sorted([(1.0, lambda: order.append("b")), (1.0, lambda: order.append("c"))])
        engine.schedule_at(1.0, lambda: order.append("d"))
        engine.run()
        assert order == ["a", "b", "c", "d"]

    @pytest.mark.parametrize(
        "times",
        [
            [2.0, 1.0],  # out of order
            [1.0, 3.0, 2.5],
            [4.0, 6.0],  # the first lies before now (5.0)
            [6.0, math.nan],
            [math.nan],
        ],
    )
    def test_a_refused_batch_schedules_nothing(self, times):
        engine, order = SimulationEngine(), []
        engine.run(until=5.0)
        with pytest.raises(ValueError, match="sorted batch"):
            engine.schedule_sorted((time, lambda: order.append("refused")) for time in times)
        assert engine.pending_events() == 0 and engine.peek_time() is None
        # No sequence number was spent either: a later tie still fires in call order.
        engine.schedule_sorted([(7.0, lambda: order.append("x"))])
        engine.schedule_at(7.0, lambda: order.append("y"))
        engine.run()
        assert order == ["x", "y"]

    def test_a_batch_may_hold_plus_infinity(self):
        engine, order = SimulationEngine(), []
        engine.schedule_sorted([(1.0, lambda: order.append(1)), (math.inf, lambda: order.append(2))])
        assert engine.run(until=100.0) is StopReason.UNTIL and order == [1]

    def test_a_second_batch_while_one_is_pending_is_merged_entry_by_entry(self):
        engine, order = SimulationEngine(), []
        engine.schedule_sorted([(1.0, lambda: order.append("a1")), (4.0, lambda: order.append("a4"))])
        engine.schedule_sorted([(1.0, lambda: order.append("b1")), (3.0, lambda: order.append("b3"))])
        assert engine.pending_events() == 4
        with pytest.raises(ValueError):
            engine.schedule_sorted([(3.0, lambda: None), (2.0, lambda: None)])
        assert engine.pending_events() == 4
        engine.run()
        assert order == ["a1", "b1", "b3", "a4"]

    def test_a_fired_stream_entry_is_released_while_the_run_goes_on(self):
        engine, released = SimulationEngine(), []

        def first():
            pass

        watched = weakref.ref(first)
        engine.schedule_sorted(
            [
                (1.0, first),
                (2.0, lambda: released.append(watched() is None)),
                (3.0, lambda: released.append(engine.pending_events())),
            ]
        )
        del first
        engine.run()
        assert released == [True, 0]


class TestTheRunnerStreamsItsWorkload:
    """``SimulationRunner`` streams the workload's keys to ``schedule_sorted``, then drops them."""

    @staticmethod
    def _config(workload, num_processes=2, duration=10.0):
        return SimulationConfig(num_processes=num_processes, duration=duration, workload=workload)

    def test_the_key_list_does_not_outlive_scheduling(self):
        class Watched(Workload):
            name = "watched"
            generated = None

            def keys(self, num_processes, duration, rng):
                class Keys(list):  # a plain list takes no weak reference
                    pass

                keys = Keys(UniformRandomWorkload().keys(num_processes, duration, rng))
                self.generated = weakref.ref(keys)
                return keys

        workload, alive = Watched(), []
        runner = SimulationRunner(self._config(workload))
        node = runner.nodes[0]
        checkpoint = node.take_checkpoint

        def watching_checkpoint(**kwargs):
            if workload.generated is not None:
                alive.append(workload.generated() is not None)
            return checkpoint(**kwargs)

        node.take_checkpoint = watching_checkpoint
        result = runner.run()
        assert result.basic_checkpoints > 2 and alive and not any(alive)

    def test_an_out_of_order_workload_is_refused_before_anything_runs(self):
        class Unordered(Workload):
            name = "unordered"

            def keys(self, num_processes, duration, rng):
                return [(2.0, 0, "send", 1), (1.0, 1, "checkpoint", -1)]

        runner = SimulationRunner(self._config(Unordered()))
        with pytest.raises(ValueError, match="sorted batch"):
            runner.run()
        assert runner.engine.processed_events == 0 and runner.nodes[0].messages_sent == 0

    def test_each_process_kind_and_target_has_one_handler(self, monkeypatch):
        handed_out = []
        action_handler = SimulationNode.action_handler

        def counting(node, action, members=None):
            handed_out.append((action.pid, action.kind, action.target))
            return action_handler(node, action, members)

        monkeypatch.setattr(SimulationNode, "action_handler", counting)
        workload = UniformRandomWorkload(mean_message_gap=0.5, mean_checkpoint_gap=2.0)
        result = SimulationRunner(self._config(workload, num_processes=4, duration=60.0)).run()
        actions = workload.generate(4, 60.0, random.Random(0))
        assert len(handed_out) == len(set(handed_out)) <= 4 * 4 < len(actions)
        assert set(handed_out) == {(a.pid, a.kind, a.target) for a in actions}
        assert result.messages_sent == sum(a.kind is ActionKind.SEND for a in actions)
