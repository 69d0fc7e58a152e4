"""Seeded random checkpoint-and-communication patterns.

The kernel-equivalence property tests and the perf-scaling benchmark both need
arbitrary, reproducible CCPs that exercise the full zigzag zoo: causal paths,
crossing (non-causal) Z-paths, zigzag cycles, undelivered messages and uneven
checkpoint rates.  This module generates them as an abstract *script* — a flat
list of operations — that can be interpreted either by the
:class:`repro.ccp.CCPBuilder` (producing a CCP with simulated dependency
vectors) or fed straight into a :class:`repro.simulation.trace.TraceRecorder`
(chunk by chunk, as the simulator records), so both consumers see the same
execution for a given seed.

Receives deliberately pick a *random* pending message rather than the oldest:
out-of-order delivery is what creates the crossing message pairs from which
Z-cycles arise (Figure 2 of the paper).
"""

from __future__ import annotations

import random
from typing import List, Tuple, Union

from repro.ccp.builder import CCPBuilder
from repro.ccp.pattern import CCP

Operation = Union[
    Tuple[str, int, int, int],  # ("send", sender, receiver, message_id)
    Tuple[str, int],  # ("receive", message_id) | ("checkpoint", pid)
]


def random_ccp_script(
    seed: int,
    *,
    num_processes: int = 4,
    num_messages: int = 40,
    checkpoint_rate: float = 0.3,
    undelivered_fraction: float = 0.1,
) -> List[Operation]:
    """A reproducible operation script for one random execution.

    ``checkpoint_rate`` is the probability that any given step takes a
    checkpoint instead of progressing a message; ``undelivered_fraction`` of
    the sent messages are left in transit (the CCP definition excludes them).
    """
    if num_processes < 2:
        raise ValueError("crossing messages require at least two processes")
    rng = random.Random(seed)
    ops: List[Operation] = []
    pending: List[int] = []
    sent = 0
    while sent < num_messages or pending:
        roll = rng.random()
        if roll < checkpoint_rate:
            ops.append(("checkpoint", rng.randrange(num_processes)))
            continue
        can_send = sent < num_messages
        if can_send and (not pending or rng.random() < 0.55):
            sender = rng.randrange(num_processes)
            receiver = rng.randrange(num_processes - 1)
            if receiver >= sender:
                receiver += 1
            ops.append(("send", sender, receiver, sent))
            pending.append(sent)
            sent += 1
        else:
            message_id = pending.pop(rng.randrange(len(pending)))
            if sent >= num_messages and rng.random() < undelivered_fraction:
                continue  # leave it in transit
            ops.append(("receive", message_id))
    return ops


def build_ccp(script: List[Operation], num_processes: int) -> CCP:
    """Interpret a script with the fluent builder and return the CCP."""
    builder = CCPBuilder(num_processes)
    for op in script:
        if op[0] == "send":
            _, sender, receiver, message_id = op
            builder.send(sender, receiver, tag=str(message_id))
        elif op[0] == "receive":
            builder.receive(str(op[1]))
        else:
            builder.checkpoint(op[1])
    return builder.build()


def random_ccp(
    seed: int,
    *,
    num_processes: int = 4,
    num_messages: int = 40,
    checkpoint_rate: float = 0.3,
    undelivered_fraction: float = 0.1,
) -> CCP:
    """Convenience: script plus builder interpretation in one call."""
    script = random_ccp_script(
        seed,
        num_processes=num_processes,
        num_messages=num_messages,
        checkpoint_rate=checkpoint_rate,
        undelivered_fraction=undelivered_fraction,
    )
    return build_ccp(script, num_processes)


class TraceFeeder:
    """Replays a script into a :class:`~repro.simulation.trace.TraceRecorder`.

    The feeder is stateful so a script can be delivered in chunks (the perf
    benchmark samples analyses between chunks, mimicking the simulator's
    periodic audits).  Checkpoint operations record a zero dependency vector
    (the recorder does not interpret vectors; oracles that need ground truth
    recompute it from the event graph).  Mirroring the builder's model, every
    member records an initial stable checkpoint ``s_i^0`` before the first
    scripted operation (a dormant slot takes its own when it joins).
    """

    def __init__(self, recorder) -> None:
        self._recorder = recorder
        self._clock = 0.0
        self._next_index = [1] * recorder.num_processes
        zeros = [0] * recorder.num_processes
        for pid in sorted(recorder.membership.members):
            self._clock += 1.0
            recorder.record_checkpoint(pid, 0, zeros, forced=False, time=self._clock)

    def resync(self) -> None:
        """Re-align checkpoint indices with the recorder after a recovery.

        A recovery session truncates histories, so storage reuses the rolled
        back checkpoint indices; scripted churn schedules call this before
        feeding the next chunk so their checkpoints continue from the
        recorder's post-truncation frontier.
        """
        self._next_index = list(self._recorder.checkpoints_taken)

    def feed(self, script: List[Operation]) -> None:
        """Replay the next chunk of operations."""
        recorder = self._recorder
        for op in script:
            self._clock += 1.0
            if op[0] == "send":
                _, sender, receiver, message_id = op
                recorder.record_send(sender, receiver, message_id, self._clock)
            elif op[0] == "receive":
                recorder.record_receive(op[1], self._clock)
            else:
                pid = op[1]
                recorder.record_checkpoint(
                    pid,
                    self._next_index[pid],
                    [0] * recorder.num_processes,
                    forced=False,
                    time=self._clock,
                )
                self._next_index[pid] += 1


def feed_trace_recorder(recorder, script: List[Operation]) -> None:
    """Replay a whole script into a fresh recorder in one go."""
    TraceFeeder(recorder).feed(script)
