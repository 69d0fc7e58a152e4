"""Fluent construction of hand-specified CCPs.

The paper's figures (1 through 5) are small, hand-drawn checkpoint and
communication patterns.  :class:`CCPBuilder` lets tests, examples and
benchmarks describe such patterns declaratively::

    builder = CCPBuilder(3)                # s_i^0 taken automatically
    builder.send(0, 1, tag="m1")
    builder.receive("m1")
    builder.checkpoint(1)                  # s_1^1
    ccp = builder.build()

The builder records into a :class:`~repro.simulation.trace.TraceRecorder`, so
a built pattern is analysed exactly as a simulated run is: its Theorem-1/2
retained sets and Lemma-1 recovery lines come from the recorder's knowledge
tracker.  Alongside the event structure the builder simulates the
dependency-vector propagation of Section 4.2, so the built CCP carries the
exact vectors an RDT protocol would have piggybacked and stored.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.causality.dependency_vector import DependencyVector
from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP


class CCPBuilder:
    """Incrementally describe a checkpoint and communication pattern."""

    def __init__(self, num_processes: int, *, initial_checkpoints: bool = True) -> None:
        """Create a builder for ``num_processes`` processes.

        When ``initial_checkpoints`` is True (the default, matching the
        paper's model) every process starts by storing its initial stable
        checkpoint ``s_i^0``.
        """
        if num_processes <= 0:
            raise ValueError("a CCP needs at least one process")
        # Deferred: the simulation package imports repro.ccp.
        from repro.simulation.trace import TraceRecorder

        self._recorder = TraceRecorder(num_processes)
        self._dvs = [
            DependencyVector.initial(num_processes, pid) for pid in range(num_processes)
        ]
        self._message_tags: Dict[str, int] = {}
        self._message_dvs: Dict[int, Tuple[int, ...]] = {}
        self._next_auto_tag = 0
        self._clock = 0.0
        if initial_checkpoints:
            for pid in range(num_processes):
                self.checkpoint(pid)

    # ------------------------------------------------------------------
    # Construction verbs
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """Number of processes in the pattern being built."""
        return self._recorder.num_processes

    def checkpoint(self, pid: int, *, forced: bool = False) -> CheckpointId:
        """Take the next stable checkpoint of ``pid`` and return its id."""
        index = self._recorder.checkpoints_taken[pid]
        self._clock += 1.0
        self._recorder.record_checkpoint(
            pid, index, self._dvs[pid].snapshot(), forced=forced, time=self._clock
        )
        self._dvs[pid].advance_after_checkpoint()
        return CheckpointId(pid, index)

    def internal(self, pid: int) -> None:
        """Record an internal (non-communication, non-checkpoint) event."""
        self._clock += 1.0
        self._recorder.record_internal(pid, self._clock)

    def send(self, sender: int, receiver: int, *, tag: Optional[str] = None) -> str:
        """Record the send of a message; returns the tag used to receive it."""
        if tag is None:
            tag = f"_auto{self._next_auto_tag}"
            self._next_auto_tag += 1
        if tag in self._message_tags:
            raise ValueError(f"message tag {tag!r} already used")
        message_id = len(self._message_tags)
        self._clock += 1.0
        self._recorder.record_send(sender, receiver, message_id, self._clock)
        self._message_tags[tag] = message_id
        self._message_dvs[message_id] = self._dvs[sender].piggyback()
        return tag

    def receive(self, tag: str) -> None:
        """Record the receipt of a previously sent message."""
        if tag not in self._message_tags:
            raise ValueError(f"unknown message tag {tag!r}")
        message_id = self._message_tags[tag]
        self._clock += 1.0
        self._recorder.record_receive(message_id, self._clock)
        receiver = self._recorder.log.message(message_id).receiver
        self._dvs[receiver].absorb(self._message_dvs[message_id])

    def message_exchange(
        self, sender: int, receiver: int, *, tag: Optional[str] = None
    ) -> str:
        """Convenience: a send immediately followed by its receive."""
        tag = self.send(sender, receiver, tag=tag)
        self.receive(tag)
        return tag

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def current_dv(self, pid: int) -> Tuple[int, ...]:
        """The dependency vector currently held by ``pid`` (``DV(v_pid)``)."""
        return self._dvs[pid].snapshot()

    def build(self) -> CCP:
        """The CCP of the execution described so far.

        Stable checkpoints carry the vectors stored with them, volatile
        checkpoints the processes' current vectors.  The pattern's analyses
        are pinned to the execution as of this call: describe more and its
        retained-set and recovery-line queries raise; build again instead.
        """
        return self._recorder.ccp(
            volatile_dvs={pid: dv.snapshot() for pid, dv in enumerate(self._dvs)}
        )

    def message_id(self, tag: str) -> int:
        """The internal message id assigned to ``tag``."""
        return self._message_tags[tag]

    def tags(self) -> List[str]:
        """All message tags used so far, in creation order."""
        return sorted(self._message_tags, key=self._message_tags.get)  # type: ignore[arg-type]
