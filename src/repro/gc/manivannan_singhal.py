"""Time-based garbage collection (Manivannan & Singhal style).

The quasi-synchronous scheme of Manivannan & Singhal avoids control messages
by assuming that every process takes a basic checkpoint at least every ``T``
time units and that message delays are bounded.  Under those assumptions the
checkpoint a process may still need to retain on behalf of any other process
is at most ``T + D`` old, so everything older than a window ``W >= T + D``
(except the most recent checkpoint) can be discarded.

The paper's criticism — "requires processes to take basic checkpoints in known
time intervals, which is unfeasible in many practical scenarios" — is exactly
what this class makes tangible: it is a faithful *behavioural* stand-in, not a
re-implementation of their full protocol, and its safety rests entirely on the
workload honouring the declared period.  The schedule explorer runs it both
with honoured and violated assumptions to show the difference (see
docs/architecture.md, substitution notes).
"""

from __future__ import annotations

from typing import Sequence

from repro.gc.base import GarbageCollector
from repro.storage.stable import StableStorage


class ManivannanSinghalCollector(GarbageCollector):
    """Discard checkpoints older than a time window derived from the checkpoint period."""

    name = "manivannan-singhal"
    asynchronous = False
    uses_time_assumptions = True
    uses_control_messages = False

    def __init__(
        self,
        pid: int,
        num_processes: int,
        storage: StableStorage,
        *,
        checkpoint_period: float = 20.0,
        max_message_delay: float = 5.0,
        slack: float = 1.0,
    ) -> None:
        super().__init__(pid, num_processes, storage)
        if checkpoint_period <= 0 or max_message_delay < 0 or slack < 0:
            raise ValueError("timing parameters must be positive")
        self._window = checkpoint_period + max_message_delay + slack
        self._prune_interval = max(checkpoint_period / 2.0, 1.0)

    @property
    def window(self) -> float:
        """Age beyond which stable checkpoints are discarded."""
        return self._window

    def on_control_plane_attached(self) -> None:
        self.control.schedule_timer(self._prune_interval)

    def on_checkpoint_stored(
        self, index: int, dv: Sequence[int], *, forced: bool, time: float
    ) -> None:
        self._prune(time)

    def on_timer(self, time: float) -> None:
        self._prune(time)
        self.control.schedule_timer(self._prune_interval)

    def _prune(self, now: float) -> None:
        last = self._storage.last_index()
        for index in self._storage.retained_indices():
            if index == last:
                continue
            if now - self._storage.get(index).time > self._window:
                self._eliminate(index)
