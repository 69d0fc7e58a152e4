"""The live coordinator's per-worker action frames come from the workload's keys.

No worker is spawned: ``LiveCoordinator._generate_actions`` is what the
coordinator runs before the rendezvous, and its frames are what each worker
schedules.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.live.coordinator import LiveCoordinator, LiveOptions
from repro.simulation.runner import SimulationConfig
from repro.simulation.workloads import (
    Action,
    ActionKind,
    ClientServerWorkload,
    GossipWorkload,
    ScriptedWorkload,
    UniformRandomWorkload,
)

#: ``workload -> (frames, sha256 of the sorted-key JSON of every pid's frames)``
#: for 4 processes, duration 60 and seed 5, captured on the commit before the
#: frames were built from the keys (when each went through an ``Action``).
_FRAME_DIGESTS = {
    "uniform": (275, "19a86e89afc792b50bcbc257d9aa83205edefac33cc3e1bebd2af4afda7b9b63"),
    "gossip": (126, "a64e1ef6e48de2620a11d5c69efdec2de00809847a8af6a254295e9aa3ca04b0"),
    "client-server": (128, "fbde6c17fefd14ee4ee8c819726cff5c6d8aea420c2a95181dfe4b6a2abe0680"),
}
_WORKLOADS = {
    "uniform": lambda: UniformRandomWorkload(mean_message_gap=1.0),
    "gossip": GossipWorkload,
    "client-server": ClientServerWorkload,
}


def _frames(workload, num_processes=4, duration=60.0, seed=5):
    config = SimulationConfig(
        num_processes=num_processes, duration=duration, workload=workload, seed=seed
    )
    coordinator = LiveCoordinator(config, LiveOptions(), "unused.trace.jsonl", "unused")
    coordinator._generate_actions()
    return coordinator._actions_by_pid


@pytest.mark.parametrize("name", sorted(_FRAME_DIGESTS))
def test_frames_are_those_of_the_parent_commit(name):
    frames = _frames(_WORKLOADS[name]())
    text = json.dumps(frames, sort_keys=True)
    count = sum(len(actions) for actions in frames.values())
    assert (count, hashlib.sha256(text.encode()).hexdigest()) == _FRAME_DIGESTS[name]


def test_a_frame_is_the_action_a_worker_schedules():
    workload = UniformRandomWorkload(mean_message_gap=1.0)
    frames = _frames(workload)
    expected = {pid: [] for pid in range(4)}
    for action in workload.generate(4, 60.0, random.Random(5)):
        expected[action.pid].append(
            [action.time, action.kind.value, action.target]
        )
    assert frames == expected
    assert any(frame[2] is None for actions in frames.values() for frame in actions)


def test_a_negative_pid_is_refused_before_any_worker_exists():
    scripted = ScriptedWorkload([Action(1.0, -1, ActionKind.CHECKPOINT)])
    with pytest.raises(ValueError, match="process -1"):
        _frames(scripted, num_processes=3, duration=10.0)
