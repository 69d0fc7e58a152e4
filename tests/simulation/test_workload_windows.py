"""A workload's windows, concatenated, are the sorted key list it always drew.

The generators write their draws into :class:`ActionColumns` and the runner
takes the keys one window at a time.  The key-list generators the simulator
had before live on here as the reference: for every workload of the table
and :class:`ScriptedWorkload`, over process counts, durations and seeds, the
windows must hold exactly their keys in their order and leave the random
generator where they left it.
"""

import random

import pytest

from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.workloads import (
    Action,
    ActionColumns,
    ActionKind,
    ScriptedWorkload,
    Workload,
    WorstCaseWorkload,
    available_workloads,
    make_workload,
)

SEND, CHECKPOINT = ActionKind.SEND.value, ActionKind.CHECKPOINT.value


def _checkpoints(keys, pid, mean_gap, duration, rng):
    time = rng.expovariate(1.0 / mean_gap)
    while time < duration:
        keys.append((time, pid, CHECKPOINT, -1))
        time += rng.expovariate(1.0 / mean_gap)


def _uniform(w, n, duration, rng, keys):
    for pid in range(n):
        time = rng.expovariate(1.0 / w._message_gap)
        while time < duration and n > 1:
            target = rng.randrange(n - 1)
            if target >= pid:
                target += 1
            keys.append((time, pid, SEND, target))
            time += rng.expovariate(1.0 / w._message_gap)
        _checkpoints(keys, pid, w._checkpoint_gap, duration, rng)


def _replies(w, n, duration, rng, keys, clients, pick):
    for client in clients:
        time = rng.expovariate(1.0 / w._request_gap)
        while time < duration:
            server = pick()
            keys.append((time, client, SEND, server))
            reply_time = time + w._think_time + rng.uniform(0.0, w._think_time)
            if reply_time < duration:
                keys.append((reply_time, server, SEND, client))
            time += rng.expovariate(1.0 / w._request_gap)
    for pid in range(n):
        _checkpoints(keys, pid, w._checkpoint_gap, duration, rng)


def _client_server(w, n, duration, rng, keys):
    if n < 2:
        raise ValueError("the client/server workload needs at least two processes")
    _replies(w, n, duration, rng, keys, range(1, n), lambda: 0)


def _zipf(w, n, duration, rng, keys):
    if n <= w._num_servers:
        raise ValueError("the zipf client/server workload needs more processes")
    pick = lambda: w._pick_server(rng, w._num_servers)  # noqa: E731
    _replies(w, n, duration, rng, keys, range(w._num_servers, n), pick)


def _pipeline(w, n, duration, rng, keys):
    for pid in range(n - 1):
        time = w._stage_period * (1.0 + 0.1 * pid)
        while time < duration:
            keys.append((time, pid, SEND, pid + 1))
            time += w._stage_period
    for pid in range(n):
        _checkpoints(keys, pid, w._checkpoint_gap, duration, rng)


def _ring(w, n, duration, rng, keys):
    for pid in range(n):
        time = w._period * (1.0 + pid / max(n, 1))
        while time < duration:
            keys.append((time, pid, SEND, (pid + 1) % n))
            time += w._period
        _checkpoints(keys, pid, w._checkpoint_gap, duration, rng)


def _worst_case(w, n, duration, rng, keys):
    for round_index in range(1, n + 1):
        base = round_index * w._round_length
        keys.extend((base, pid, CHECKPOINT, -1) for pid in range(n))
        sender = round_index - 1
        keys.extend(
            (base + w._round_length / 2, sender, SEND, pid) for pid in range(n) if pid != sender
        )
    keys.extend(((n + 1) * w._round_length, pid, CHECKPOINT, -1) for pid in range(n))


def _gossip(w, n, duration, rng, keys):
    for pid in range(n):
        time = rng.expovariate(1.0 / w._round_gap)
        while time < duration and n > 1:
            peers = [p for p in range(n) if p != pid]
            for target in rng.sample(peers, min(w._fanout, len(peers))):
                keys.append((time, pid, SEND, target))
            time += rng.expovariate(1.0 / w._round_gap)
        _checkpoints(keys, pid, w._checkpoint_gap, duration, rng)


def _hierarchical(w, n, duration, rng, keys):
    regions = {}
    for pid in range(n):
        regions.setdefault(w.region_of(pid, n), []).append(pid)
    for pid in range(n):
        home = w.region_of(pid, n)
        local = [p for p in regions[home] if p != pid]
        remote = [p for p in range(n) if w.region_of(p, n) != home]
        time = rng.expovariate(1.0 / w._message_gap)
        while time < duration and n > 1:
            go_local = local and (not remote or rng.random() < w._local_bias)
            keys.append((time, pid, SEND, rng.choice(local if go_local else remote)))
            time += rng.expovariate(1.0 / w._message_gap)
        _checkpoints(keys, pid, w._checkpoint_gap, duration, rng)


REFERENCE = {
    "uniform-random": _uniform,
    "client-server": _client_server,
    "zipf-client-server": _zipf,
    "pipeline": _pipeline,
    "ring": _ring,
    "worst-case": _worst_case,
    "gossip": _gossip,
    "hierarchical": _hierarchical,
}


def _reference(workload, n, duration, seed):
    """The sorted key list and the generator's next draw, the old way."""
    rng, keys = random.Random(seed), []
    REFERENCE[workload.name](workload, n, duration, rng, keys)
    keys.sort()
    return keys, rng.random()


def _windows(workload, n, duration, seed):
    """The windows, and the generator's next draw once they were drawn."""
    rng = random.Random(seed)
    windows = workload.windows(n, duration, rng)
    after = rng.random()
    listed = list(windows)
    assert windows.count == sum(map(len, listed))
    return listed, after


def _assert_windows_are_the_sorted_keys(listed, keys):
    assert [key for window in listed for key in window] == keys
    assert all(window for window in listed)
    assert all(window == sorted(window) for window in listed)
    # Equal times never straddle two windows.
    assert all(left[-1][0] < right[0][0] for left, right in zip(listed, listed[1:]))


def test_every_workload_of_the_table_has_a_reference():
    assert sorted(REFERENCE) == available_workloads()


@pytest.mark.parametrize("name", sorted(REFERENCE))
@pytest.mark.parametrize("num_processes", [1, 2, 3, 16, 64])
def test_the_windows_are_the_reference_keys(name, num_processes):
    for duration in (7.5, 120.0, 600.0):
        for seed in (0, 1, 29):
            workload = make_workload(name)
            try:
                expected = _reference(workload, num_processes, duration, seed)
            except ValueError:
                with pytest.raises(ValueError):
                    _windows(workload, num_processes, duration, seed)
                continue
            listed, after = _windows(workload, num_processes, duration, seed)
            _assert_windows_are_the_sorted_keys(listed, expected[0])
            assert after == expected[1]
            assert workload.keys(num_processes, duration, random.Random(seed)) == expected[0]


def test_a_long_run_is_cut_into_many_windows():
    listed, _ = _windows(make_workload("uniform-random"), 64, 600.0, 1)
    assert len(listed) > 5 and max(map(len, listed)) < sum(map(len, listed)) / 5


@pytest.mark.parametrize("num_processes", [2, 16, 64])
def test_a_worst_case_shorter_than_its_schedule_keeps_every_round(num_processes):
    workload = WorstCaseWorkload(round_length=3.0)
    duration = workload.required_duration(num_processes) / 3
    listed, after = _windows(workload, num_processes, duration, 5)
    keys, expected_after = _reference(workload, num_processes, duration, 5)
    assert keys[-1][0] > duration
    _assert_windows_are_the_sorted_keys(listed, keys)
    assert after == expected_after


class TestScripted:
    @staticmethod
    def _script(seed, n=5, count=300):
        """Actions at few distinct times, given out of order."""
        rng = random.Random(seed)
        actions = []
        for _ in range(count):
            time, pid = rng.choice([0.0, 1.0, 1.0, 2.5, 4.0, 4.0, 9.0]), rng.randrange(n)
            if rng.random() < 0.3:
                actions.append(Action(time, pid, ActionKind.CHECKPOINT))
            else:
                actions.append(Action(time, pid, ActionKind.SEND, (pid + rng.randrange(1, n)) % n))
        return actions

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equal_times_given_out_of_order(self, seed):
        actions = self._script(seed)
        listed, _ = _windows(ScriptedWorkload(actions), 5, 10.0, 0)
        _assert_windows_are_the_sorted_keys(listed, sorted(a.sort_key() for a in actions))

    def test_the_script_draws_nothing(self):
        rng = random.Random(3)
        ScriptedWorkload(self._script(0)).windows(5, 10.0, rng)
        assert rng.random() == random.Random(3).random()

    def test_an_empty_script_is_no_window(self):
        windows = ScriptedWorkload([]).windows(2, 10.0, random.Random(0))
        assert windows.count == 0 and list(windows) == []

    def test_a_time_that_is_not_a_number_is_refused_when_drawn(self):
        script = [
            Action(1.0, 0, ActionKind.CHECKPOINT), Action(float("nan"), 0, ActionKind.CHECKPOINT)
        ]
        with pytest.raises(ValueError, match="must be numbers, got nan"):
            ScriptedWorkload(script).windows(2, 10.0, random.Random(0))

    def test_a_time_in_the_past_is_refused_before_anything_runs(self):
        script = [Action(-1.0, 0, ActionKind.CHECKPOINT), Action(3.0, 1, ActionKind.SEND, 0)]
        runner = SimulationRunner(SimulationConfig(2, 10.0, ScriptedWorkload(script)))
        with pytest.raises(ValueError, match="sorted batch holding time -1.0"):
            runner.run()
        assert runner.engine.processed_events == 0 and runner.network.stats.app_sent == 0


class TestColumns:
    def test_unsorted_runs_are_sorted_by_time_with_their_targets(self):
        columns = ActionColumns()
        times, targets = columns.sends(1)
        for time, target in [(3.0, 0), (1.0, 2), (2.0, 0), (1.0, 0)]:
            times.append(time)
            targets.append(target)
        columns.checkpoints(0).extend([0.5, 2.0])
        columns.checkpoints(2)  # an empty run
        listed = list(columns.seal())
        assert [key for window in listed for key in window] == [
            (0.5, 0, CHECKPOINT, -1),
            (1.0, 1, SEND, 0),
            (1.0, 1, SEND, 2),
            (2.0, 0, CHECKPOINT, -1),
            (2.0, 1, SEND, 0),
            (3.0, 1, SEND, 0),
        ]

    def test_a_keys_only_workload_is_one_window(self):
        class KeysOnly(Workload):
            name = "keys-only"

            def keys(self, num_processes, duration, rng):
                return [(float(t), 0, CHECKPOINT, -1) for t in range(100)]

        windows = KeysOnly().windows(1, 10.0, random.Random(0))
        assert windows.count == 100
        assert list(windows) == [KeysOnly().keys(1, 10.0, None)]
