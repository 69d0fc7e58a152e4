"""The :class:`Transport` interface and the message/recorder contracts.

Everything the middleware needs from its environment fits in four calls:
a clock, application sends, control sends and timers.  The paper's model
needs nothing more — the piggybacked dependency vector is the only control
information on application messages, and the coordinated baselines only add
reliable control exchanges and timers.

:class:`AppMessage` lives here (re-exported by
:mod:`repro.simulation.network` for compatibility) because it is part of
the transport contract, not of any one backend.

:class:`TraceRecorderPort` is the structural type of the middleware's trace
dependency: the simulator hands nodes the global
:class:`repro.simulation.trace.TraceRecorder` (or, while nobody reads it, the
runner's port that keeps the occurrences for it), the live backend hands each
worker a per-process shard recorder — the node cannot tell the difference.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, NamedTuple, Protocol, Sequence, Tuple, runtime_checkable


class AppMessage(NamedTuple):
    """An application message in transit (an immutable, tuple-backed record)."""

    message_id: int
    sender: int
    receiver: int
    piggyback: Tuple[int, ...]


@runtime_checkable
class TraceRecorderPort(Protocol):
    """What the middleware records its execution into.

    Structurally satisfied by :class:`repro.simulation.trace.TraceRecorder`
    (the simulator's global recorder), by the runner's read-on-demand port in
    front of it and by the live backend's per-process shard recorder.  Times
    are always supplied by the caller, sourced from
    :meth:`Transport.now` — the recorder has no clock of its own.
    """

    def record_send(
        self, sender: int, receiver: int, message_id: int, time: float
    ) -> None:
        """An application message was sent."""

    def record_receive(self, message_id: int, time: float) -> None:
        """An application message was delivered."""

    def record_duplicate_receive(self, message_id: int, time: float) -> None:
        """A duplicate copy of an already-received message was delivered."""

    def record_checkpoint(
        self,
        pid: int,
        index: int,
        dependency_vector: Sequence[int],
        *,
        forced: bool,
        time: float,
    ) -> None:
        """A stable checkpoint was stored with its dependency vector."""


class Transport(abc.ABC):
    """The middleware's window on the world: clock, messages, timers.

    Contract:

    * :meth:`now` is the execution clock record timestamps come from —
      virtual time under simulation, scaled monotonic wall time under the
      live backend.  It never goes backwards within one incarnation of a
      process.
    * :meth:`send_app_message` is fire-and-forget with at-least-once-or-not-
      at-all semantics decided by the backend's fault model; it returns the
      in-transit record so the caller learns the assigned ``message_id``.
    * :meth:`send_control_message` is reliable (never dropped, duplicated or
      blocked) — the coordinated baselines assume exactly that.
    * :meth:`schedule_timer` fires ``callback`` once, ``delay`` clock units
      from now, on the thread/task that drives the middleware (no locking
      needed in callbacks).

    Both backends — :class:`repro.simulation.network.Network` and
    :class:`repro.live.transport.LiveTransport` — implement exactly these
    four calls, and draw every message's fate from one
    :class:`repro.simulation.network.LinkFates`.
    """

    @abc.abstractmethod
    def now(self) -> float:
        """The current execution time, in workload time units."""

    @abc.abstractmethod
    def send_app_message(
        self, sender: int, receiver: int, piggyback: Tuple[int, ...]
    ) -> AppMessage:
        """Send an application message; returns the in-transit record."""

    @abc.abstractmethod
    def send_control_message(self, sender: int, receiver: int, payload: Any) -> None:
        """Send a reliable control message to another process's collector."""

    @abc.abstractmethod
    def schedule_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once, ``delay`` clock units from now."""
