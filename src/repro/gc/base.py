"""Garbage-collector interface used by the simulator.

A :class:`GarbageCollector` instance belongs to one process.  The simulation
node owns the mechanism (dependency vector, stable storage, message I/O) and
notifies the collector of every relevant event; the collector decides which
stable checkpoints to eliminate and when, by calling
``storage.eliminate(index)``.

The split captures the paper's taxonomy directly:

* *asynchronous* collectors (Definition 8) only ever react to the application
  events — they never use the control plane or timers;
* coordinated baselines additionally exchange control messages through the
  :class:`ControlPlane` handed to them by the node;
* time-based baselines rely on :meth:`GarbageCollector.on_timer` ticks, i.e.
  on assumptions about the passage of time.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, ClassVar, List, Optional, Sequence, Tuple

from repro.storage.stable import StableStorage


class ControlPlane(abc.ABC):
    """Facility for collectors that need control messages or timers.

    The simulator provides a concrete implementation per node; unit tests can
    provide in-memory fakes.  Asynchronous collectors never touch it.
    """

    @abc.abstractmethod
    def send_control(self, destination: int, payload: Any) -> None:
        """Send a control message to the collector of another process."""

    @abc.abstractmethod
    def broadcast_control(self, payload: Any) -> None:
        """Send a control message to the collectors of all other processes."""

    @abc.abstractmethod
    def schedule_timer(self, delay: float) -> None:
        """Request an :meth:`GarbageCollector.on_timer` callback after ``delay``."""

    @abc.abstractmethod
    def current_time(self) -> float:
        """The current simulated time."""

    @abc.abstractmethod
    def current_dv(self) -> Tuple[int, ...]:
        """The owning process's current dependency vector."""


class GarbageCollector(abc.ABC):
    """Per-process garbage-collection policy."""

    #: Short name used in reports and the registry.
    name: ClassVar[str] = "abstract"
    #: True if the collector satisfies Definition 8 (application messages only).
    asynchronous: ClassVar[bool] = False
    #: True if the collector relies on timing assumptions.
    uses_time_assumptions: ClassVar[bool] = False
    #: True if the collector exchanges control messages.
    uses_control_messages: ClassVar[bool] = False
    #: True if the collector claims Theorem-5 optimality (its retained set
    #: equals the Theorem-2 retained set at every instant of an RDT
    #: execution).  Oracle stacks audit optimality only for collectors that
    #: claim it — baselines are merely required to be safe.
    claims_optimality: ClassVar[bool] = False
    #: True for a deliberately broken collector that tests the oracles
    #: (:mod:`repro.gc.canaries`): it resolves by name but is left out of
    #: :func:`~repro.gc.registry.available_collectors`.
    canary: ClassVar[bool] = False

    def __init__(self, pid: int, num_processes: int, storage: StableStorage) -> None:
        if not 0 <= pid < num_processes:
            raise ValueError(f"pid {pid} out of range for {num_processes} processes")
        self._pid = pid
        self._num_processes = num_processes
        self._storage = storage
        self._control: Optional[ControlPlane] = None
        self._elimination_listeners: List[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        """The owning process id."""
        return self._pid

    @property
    def num_processes(self) -> int:
        """Number of processes in the system."""
        return self._num_processes

    @property
    def storage(self) -> StableStorage:
        """The stable storage this collector manages."""
        return self._storage

    @property
    def control(self) -> ControlPlane:
        """The attached control plane (raises if none was attached)."""
        if self._control is None:
            raise RuntimeError(f"collector {self.name!r} has no control plane attached")
        return self._control

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_control_plane(self, control: ControlPlane) -> None:
        """Give the collector access to control messages and timers."""
        self._control = control
        self.on_control_plane_attached()

    def on_control_plane_attached(self) -> None:
        """Hook for collectors that schedule their first timer at start-up."""

    def attach_elimination_listener(self, listener: Callable[[int], None]) -> None:
        """Observe every checkpoint index this collector eliminates.

        Listeners fire *after* the checkpoint was removed from stable storage.
        The live worker shards eliminations this way, and a driver that wants
        its trace recorder to compact routes them to ``record_elimination``;
        concrete collectors route their eliminations through
        :meth:`_eliminate` so the hook sees all of them.
        """
        self._elimination_listeners.append(listener)

    def _eliminate(self, index: int) -> None:
        """Eliminate stable checkpoint ``index`` and notify listeners."""
        self._storage.eliminate(index)
        for listener in self._elimination_listeners:
            listener(index)

    # ------------------------------------------------------------------
    # Application-event hooks (all optional)
    # ------------------------------------------------------------------
    def on_receive(self, updated_entries: Sequence[int]) -> None:
        """An application message was delivered.

        ``updated_entries`` lists the dependency-vector entries that increased.
        """

    def on_checkpoint_stored(
        self, index: int, dv: Sequence[int], *, forced: bool, time: float
    ) -> None:
        """A stable checkpoint was written to storage with the given vector."""

    # ------------------------------------------------------------------
    # Control-plane hooks
    # ------------------------------------------------------------------
    def on_control_message(self, sender: int, payload: Any, time: float) -> None:
        """A control message from another collector arrived."""

    def on_timer(self, time: float) -> None:
        """A timer previously scheduled through the control plane fired."""

    # ------------------------------------------------------------------
    # Recovery-session hooks
    # ------------------------------------------------------------------
    def on_rollback(
        self,
        rollback_index: int,
        last_interval_vector: Optional[Sequence[int]],
        dv: Sequence[int],
    ) -> List[int]:
        """This process rolled back to ``rollback_index``.

        Called *after* the node has discarded the rolled-back checkpoints and
        recreated its dependency vector (``dv`` is the recreated vector).
        Returns the checkpoint indices eliminated as garbage by the collector.
        """
        return []

    def on_peer_rollback(
        self, last_interval_vector: Sequence[int], dv: Sequence[int]
    ) -> List[int]:
        """Other processes rolled back; this one keeps its volatile state."""
        return []

    # ------------------------------------------------------------------
    # Membership hooks
    # ------------------------------------------------------------------
    def on_departure_self(self) -> List[int]:
        """This process left the membership permanently.

        A departed process can never be faulty, so no recovery line ever
        needs its checkpoints — all of them are garbage the instant it
        leaves.  The default eliminates everything retained, through
        :meth:`_eliminate` so elimination listeners (trace pruning) observe
        every index.  Returns the eliminated indices.
        """
        collected = sorted(self._storage.retained_indices())
        for index in collected:
            self._eliminate(index)
        return collected

    def on_peer_departure(self, pid: int) -> None:
        """Process ``pid`` left the membership permanently (optional hook)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(pid={self._pid})"
