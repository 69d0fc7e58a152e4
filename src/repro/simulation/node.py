"""A process of the checkpointed application: middleware and garbage collector.

The node is the *mechanism*: it owns the dependency vector (the only control
information piggybacked on application messages, per the paper's model), the
stable storage and the message I/O.  The *policies* are plugged in:

* a :class:`repro.protocols.CheckpointingProtocol` decides when forced
  checkpoints are taken;
* a :class:`repro.gc.GarbageCollector` decides which stable checkpoints to
  eliminate (and may, for the coordinated baselines, use the node's control
  plane).

The node talks to its environment exclusively through the four calls of a
:class:`repro.transport.Transport` — clock, application sends, control
sends, timers — so the same middleware runs unchanged inside the
discrete-event simulator (:class:`repro.simulation.network.Network`) and as
a real OS process on UDP sockets (:class:`repro.live.transport.LiveTransport`).
Both backends build their nodes with :func:`build_node` and turn workload
actions into callbacks with :meth:`SimulationNode.action_handler`.  Despite
the class name (kept for continuity), nothing in here is simulation-specific.

What the node records goes into a :class:`repro.transport.TraceRecorderPort`,
and a port may apply it to a recorder later than it happened (the simulator's
runner does, on a run nobody reads).  A refusal that must happen at the call
— a self-send, a destination outside the process set — is therefore the
node's own, made before the protocol or the transport hear of the send.

The event ordering required by Section 4.5 — a forced checkpoint triggered by
a message is stored *before* the receipt is processed and before any garbage
collection related to that receipt — is enforced in :meth:`deliver`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.causality.dependency_vector import DependencyVector
from repro.gc.base import ControlPlane, GarbageCollector
from repro.gc.registry import make_collector
from repro.membership import MembershipView
from repro.protocols.base import CheckpointingProtocol
from repro.protocols.registry import make_protocol
from repro.simulation.workloads import Action, ActionKind
from repro.storage.stable import StableStorage
from repro.transport.base import AppMessage, TraceRecorderPort, Transport


class _NodeControlPlane(ControlPlane):
    """Adapter giving a node's collector access to control messages and timers."""

    def __init__(self, node: "SimulationNode") -> None:
        self._node = node

    def send_control(self, destination: int, payload: Any) -> None:
        self._node.transport.send_control_message(
            self._node.pid, destination, payload
        )

    def broadcast_control(self, payload: Any) -> None:
        for pid in range(self._node.num_processes):
            if pid != self._node.pid:
                self.send_control(pid, payload)

    def schedule_timer(self, delay: float) -> None:
        transport = self._node.transport
        transport.schedule_timer(
            delay, lambda: self._node.collector.on_timer(transport.now())
        )

    def current_time(self) -> float:
        return self._node.transport.now()

    def current_dv(self) -> Tuple[int, ...]:
        return self._node.current_dv


class SimulationNode:
    """One process of the checkpointed distributed application."""

    def __init__(
        self,
        pid: int,
        num_processes: int,
        *,
        transport: Transport,
        trace: TraceRecorderPort,
        protocol: CheckpointingProtocol,
        collector: GarbageCollector,
        storage: StableStorage,
    ) -> None:
        self._pid = pid
        self._num_processes = num_processes
        self._transport = transport
        self._trace = trace
        self._protocol = protocol
        self._collector = collector
        self._storage = storage
        self._dv = DependencyVector.initial(num_processes, pid)
        self._crashed = False
        self._departed = False
        self.messages_sent = 0
        self.messages_received = 0
        self.duplicates_received = 0
        self.basic_checkpoints = 0
        self.forced_checkpoints = 0
        self.rollbacks = 0
        collector.attach_control_plane(_NodeControlPlane(self))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        """The process id."""
        return self._pid

    @property
    def num_processes(self) -> int:
        """Number of processes in the system."""
        return self._num_processes

    @property
    def transport(self) -> Transport:
        """The backend this node runs on (simulated or live)."""
        return self._transport

    @property
    def protocol(self) -> CheckpointingProtocol:
        """The checkpointing protocol policy."""
        return self._protocol

    @property
    def collector(self) -> GarbageCollector:
        """The attached garbage collector."""
        return self._collector

    @property
    def storage(self) -> StableStorage:
        """The process's stable storage."""
        return self._storage

    @property
    def current_dv(self) -> Tuple[int, ...]:
        """The process's current dependency vector."""
        return self._dv.as_tuple()

    @property
    def crashed(self) -> bool:
        """True while the process is down (between crash and recovery)."""
        return self._crashed

    @property
    def departed(self) -> bool:
        """True once the process permanently left the membership."""
        return self._departed

    @property
    def _inert(self) -> bool:
        """True when the process must ignore application events."""
        return self._crashed or self._departed

    # ------------------------------------------------------------------
    # Application events
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Store the initial stable checkpoint ``s_pid^0`` (the model requires it)."""
        self.take_checkpoint(forced=False)

    def action_handler(
        self, action: Action, members: Optional[MembershipView] = None
    ) -> Callable[[], None]:
        """The callback that performs workload ``action`` on this process.

        With ``members`` (a dynamic-membership run) the action happens only
        if every pid it touches is a member when the callback fires:
        workloads draw actions over the full capacity, and the application
        knows its membership.
        """
        act: Callable[[], Any]  # the engine ignores take_checkpoint's index
        if action.kind is ActionKind.SEND:
            act = partial(self.send_message, action.target)
            touched = (self._pid, action.target)
        else:
            act = self.take_checkpoint  # basic: forced defaults to False
            touched = (self._pid,)
        if members is None:
            return act

        def act_if_members() -> None:
            if all(members.is_member(pid) for pid in touched):
                act()

        return act_if_members

    def send_message(self, destination: int) -> None:
        """Send an application message to ``destination``."""
        if self._inert:
            return
        if destination == self._pid:
            raise ValueError("a process does not send application messages to itself")
        if not 0 <= destination < self._num_processes:
            # Refused before the transport counts it, draws its fate and puts
            # a copy in flight towards a process that does not exist.
            raise ValueError(
                f"unknown destination process {destination}: the run has "
                f"{self._num_processes} processes"
            )
        self._protocol.notify_send()
        message = self._transport.send_app_message(
            self._pid, destination, self._dv.piggyback()
        )
        self._trace.record_send(
            self._pid, destination, message.message_id, self._transport.now()
        )
        self.messages_sent += 1

    def deliver(self, message: AppMessage) -> None:
        """Deliver an application message to this process."""
        if self._receive(message, self._trace.record_receive):
            self.messages_received += 1

    def deliver_duplicate(self, message: AppMessage) -> None:
        """Deliver a duplicate copy of a message this process already received.

        The middleware cannot tell a duplicate from a fresh message (the
        paper's piggyback carries no sequence numbers), so the full delivery
        path runs again: the protocol may force a checkpoint, the dependency
        vector re-absorbs the piggyback (idempotent — the information was
        already absorbed by the first copy, which the network guarantees
        arrived earlier), and the collector observes the receipt.  Only the
        trace knows the ground truth and records a causally-neutral
        duplicate event instead of a second receive.
        """
        if self._receive(message, self._trace.record_duplicate_receive):
            self.duplicates_received += 1

    def _receive(
        self, message: AppMessage, record: Callable[[int, float], None]
    ) -> bool:
        """The delivery path shared by fresh and duplicate copies; False if inert."""
        if self._inert:
            return False
        if message.piggyback[self._pid] > self._dv.current_interval():
            # An orphan of a rollback or a garbled datagram: refused before
            # the protocol, the vector or the collector absorbs it.
            raise ValueError(
                f"process {self._pid}: message {message.message_id} depends on its own "
                f"interval {message.piggyback[self._pid]}, not yet reached"
            )
        if self._protocol.should_force_checkpoint(self._dv.entries, message.piggyback):
            self.take_checkpoint(forced=True)
        record(message.message_id, self._transport.now())
        updated = self._dv.absorb(message.piggyback)
        self._protocol.notify_receive()
        self._collector.on_receive(updated)
        return True

    def take_checkpoint(self, *, forced: bool = False, payload: Any = None) -> int:
        """Take a basic or forced checkpoint; returns its index."""
        if self._inert:
            return self._storage.last_index()
        index = self._dv.current_interval()
        now = self._transport.now()
        # One snapshot for storage, trace and collector (tuples are immutable).
        dv = self._dv.as_tuple()
        self._storage.store(index, dv, payload=payload, forced=forced, time=now)
        self._trace.record_checkpoint(self._pid, index, dv, forced=forced, time=now)
        self._collector.on_checkpoint_stored(index, dv, forced=forced, time=now)
        self._protocol.notify_checkpoint()
        self._dv.advance_after_checkpoint()
        if forced:
            self.forced_checkpoints += 1
        else:
            self.basic_checkpoints += 1
        return index

    # ------------------------------------------------------------------
    # Failures and recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose the volatile state; the process stays down until recovery."""
        self._crashed = True

    def depart(self) -> List[int]:
        """Permanently retire from the membership.

        Unlike :meth:`crash` there is no recovery: a departed process can
        never be faulty, so every one of its stable checkpoints is garbage
        the instant it leaves (the paper's obsolescence theory — no recovery
        line can need them).  The collector eliminates them all, and the
        node ignores application events from then on.  Returns the
        eliminated indices.
        """
        if self._departed:
            raise RuntimeError(f"process {self._pid} already departed")
        collected = self._collector.on_departure_self()
        self._departed = True
        return collected

    def apply_rollback(
        self,
        rollback_index: int,
        last_interval_vector: Optional[Sequence[int]],
    ) -> List[int]:
        """Restart from stable checkpoint ``rollback_index``.

        The node discards later checkpoints, recreates its dependency vector
        from the restored checkpoint, resets the protocol state and lets the
        garbage collector run its recovery-session logic (Algorithm 3 for
        RDT-LGC).  Returns the checkpoint indices the collector eliminated.
        A checkpoint not on stable storage (``KeyError``) or a last-interval
        vector of the wrong length (``ValueError``) is refused before
        anything changes.
        """
        if last_interval_vector is not None:
            self._require_full_vector(last_interval_vector)
        restored = self._storage.get(rollback_index)
        self._storage.eliminate_after(rollback_index)
        self._dv.restore(restored.dependency_vector)
        self._dv.advance_after_checkpoint()
        self._protocol.reset_after_rollback()
        collected = self._collector.on_rollback(
            rollback_index, last_interval_vector, self._dv.as_tuple()
        )
        self._crashed = False
        self.rollbacks += 1
        return collected

    def apply_peer_rollback(self, last_interval_vector: Sequence[int]) -> List[int]:
        """Recovery session in which this process keeps its volatile state."""
        self._require_full_vector(last_interval_vector)
        return self._collector.on_peer_rollback(
            last_interval_vector, self._dv.as_tuple()
        )

    def _require_full_vector(self, last_interval_vector: Sequence[int]) -> None:
        if len(last_interval_vector) != self._num_processes:
            raise ValueError(
                f"last-interval vector has {len(last_interval_vector)} entries; "
                f"the run has {self._num_processes} processes"
            )


def build_node(
    pid: int,
    num_processes: int,
    *,
    protocol: str,
    collector: str,
    collector_options: Mapping[str, Any],
    transport: Transport,
    trace: TraceRecorderPort,
) -> SimulationNode:
    """One process's middleware stack, from registry names, on ``transport``."""
    storage = StableStorage(pid)
    return SimulationNode(
        pid,
        num_processes,
        transport=transport,
        trace=trace,
        protocol=make_protocol(protocol, pid, num_processes),
        collector=make_collector(
            collector, pid, num_processes, storage, **dict(collector_options)
        ),
        storage=storage,
    )
