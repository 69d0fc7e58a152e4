"""Message transport between simulated processes.

Channels follow the paper's model by default: messages cannot be corrupted,
but they can be lost and delivered out of order.  The *fate* of each message
— its latency, whether it is lost, whether extra copies appear — is decided
by a pluggable :class:`repro.simulation.channels.ChannelModel`; the default
:class:`~repro.simulation.channels.UniformChannel` reproduces the paper's
transport exactly (base latency plus uniform jitter, i.i.d. loss).  On top
of the channel model, :class:`NetworkConfig` can impose a
:class:`~repro.simulation.channels.PartitionSchedule` (timed partitions that
heal; application messages crossing an active cut are lost) and a FIFO
delivery discipline (per-link deliveries in send order; the default is the
paper's non-FIFO reordering).

Determinism and isolation.  Every directed link owns two private random
streams — one for application traffic, one for control traffic — derived
from the engine seed and the link endpoints, never from the shared engine
generator.  Consequently adding or removing traffic (or a fault model) on
one link does not perturb the latency/loss draws of any other link, and
attaching a coordinated garbage collector (control traffic) does not perturb
the application execution.  The workload, which *does* draw from the engine
generator, is likewise untouched by anything the network does.

Control messages (used only by the coordinated garbage-collection baselines)
travel over the same transport but are never dropped, duplicated or blocked
by partitions — those baselines explicitly assume reliable control
exchanges, which is part of the paper's point; their latency still follows
the link's channel model.

During a recovery session the runner calls :meth:`Network.drop_in_flight`,
which discards every application message copy still in transit: a
rolled-back sender's messages must not be delivered to the restarted
computation, and the model permits treating the others as lost.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.simulation.channels import (
    ChannelModel,
    LinkState,
    PartitionSchedule,
    UniformChannel,
    channel_from_mapping,
)
from repro.simulation.engine import SimulationEngine
from repro.transport.base import AppMessage, Transport
from repro.validation import SpecValidationError, check_keys, flag, naming

__all__ = [
    "AppMessage",
    "LinkFates",
    "Network",
    "NetworkConfig",
    "NetworkStats",
    "PartitionEvent",
    "ScheduleController",
    "network_config_from_mapping",
]

#: ``(time, kind, groups)`` of one partition cut/heal, as seen by hooks.
PartitionEvent = Tuple[float, str, Tuple[Tuple[int, ...], ...]]


@dataclass(frozen=True)
class NetworkConfig:
    """Latency, jitter, loss and fault-model parameters of the transport.

    The three scalar fields describe the default
    :class:`~repro.simulation.channels.UniformChannel`; a non-``None``
    ``channel`` supersedes them.  ``partitions`` and ``fifo`` compose with
    any channel model.
    """

    base_latency: float = 1.0
    jitter: float = 0.5
    drop_probability: float = 0.0
    channel: Optional[ChannelModel] = None
    partitions: PartitionSchedule = field(default_factory=PartitionSchedule.none)
    fifo: bool = False

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.jitter < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        if self.channel is not None and not isinstance(self.channel, ChannelModel):
            raise ValueError("channel must be a ChannelModel")

    def resolve_channel(self) -> ChannelModel:
        """The effective channel model of this configuration."""
        if self.channel is not None:
            return self.channel
        return UniformChannel(
            base_latency=self.base_latency,
            jitter=self.jitter,
            drop_probability=self.drop_probability,
        )

    def validate_for(self, num_processes: int) -> None:
        """Reject configurations that cannot serve ``num_processes``."""
        self.resolve_channel().validate_for(num_processes)
        self.partitions.validate_for(num_processes)

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description (trace headers, campaign cells).

        Deliberately emits *only* the three scalar keys for a default
        (uniform, unpartitioned, non-FIFO) configuration, so the identity of
        every pre-fault-model campaign cell and trace header is unchanged;
        fault models appear as additional keys only when present.
        """
        description: Dict[str, Any] = {
            "base_latency": self.base_latency,
            "jitter": self.jitter,
            "drop_probability": self.drop_probability,
        }
        if self.channel is not None:
            description["channel"] = self.channel.describe()
        if self.partitions:
            description["partitions"] = self.partitions.describe()
        if self.fifo:
            description["fifo"] = True
        return description


def network_config_from_mapping(document: Mapping[str, Any]) -> NetworkConfig:
    """Build a :class:`NetworkConfig` from its :meth:`NetworkConfig.describe`
    mapping (the form campaign specs written as JSON use)."""
    if not isinstance(document, Mapping):
        raise SpecValidationError("", f"expected a mapping of network settings, got {document!r}")
    known = ("base_latency", "jitter", "drop_probability", "channel", "partitions", "fifo")
    check_keys(document, known, "network config")
    params = dict(document)
    with naming("channel"):
        channel = params.pop("channel", None)
        channel = None if channel is None else channel_from_mapping(channel)
    with naming("partitions"):
        partitions = PartitionSchedule.from_mapping(params.pop("partitions", None) or ())
    fifo = flag("fifo", params.pop("fifo", False))
    with naming(""):
        return NetworkConfig(**params, channel=channel, partitions=partitions, fifo=fifo)


class ScheduleController(Protocol):
    """External owner of application-message delivery *order*.

    With a controller attached (:meth:`Network.attach_controller`), the
    network still decides the *fate* of every copy exactly as before — the
    channel model samples loss/duplication/latency from the same per-link
    random streams in the same order, so a controlled run consumes draws
    identically to an uncontrolled one — but instead of scheduling the copy
    on the engine at its sampled delivery time, custody is handed to the
    controller.  The controller delivers a copy whenever its schedule says
    so by calling :meth:`Network.release_delivery`; the copy is then
    delivered at the *current* engine time.  This is the hook the
    schedule-space explorer (:mod:`repro.explore`) drives interleavings
    through.
    """

    def on_copy_in_flight(
        self, delivery_id: int, message: AppMessage, sampled_delivery_time: float
    ) -> None:
        """The network placed one message copy in the controller's custody.

        ``sampled_delivery_time`` is the delivery instant the engine *would*
        have used (provenance only — the controller decides the real order).
        """

    def on_copies_discarded(self, delivery_ids: List[int]) -> None:
        """A recovery session discarded in-custody copies (drop_in_flight)."""


@dataclass
class NetworkStats:
    """Counters kept by the transport."""

    app_sent: int = 0
    app_delivered: int = 0
    app_dropped: int = 0
    app_duplicates_delivered: int = 0
    app_blocked_by_partition: int = 0
    app_discarded_by_recovery: int = 0
    app_discarded_by_departure: int = 0
    control_sent: int = 0
    control_delivered: int = 0
    partition_events: int = 0


class LinkFates:
    """Decides what happens to every message of one run, link by link.

    The one owner of the fault model's runtime, shared by both backends
    (:class:`Network` schedules what it decides on the engine,
    :class:`repro.live.transport.LiveTransport` injects it physically): the
    private random streams of every directed link, the channel model's
    per-link state, the partition gate, the FIFO clock, the first-copy /
    duplicate classification of arrivals, and the :class:`NetworkStats`
    those decisions feed.

    ``incarnation`` is the live backend's: a respawned worker rebuilds its
    transport from the run seed, and without a salt its outgoing links would
    replay the draws of the killed incarnation where the simulator's streams
    continue.  Incarnation 0 derives the unsalted streams, so a crash-free
    live run draws exactly the simulator's values.
    """

    def __init__(self, seed: int, config: NetworkConfig, *, incarnation: int = 0) -> None:
        self._stream = f"{seed}:net" if incarnation == 0 else f"{seed}:net@{incarnation}"
        self._channel = config.resolve_channel()
        # None for the (usual) empty schedule: nothing to scan per message.
        self._partitions = config.partitions or None
        self._fifo = config.fifo
        #: Per directed link: the channel model's state (shared by both kinds
        #: of traffic) and the application stream, found in one lookup.
        self._links: Dict[Tuple[int, int], Tuple[LinkState, random.Random]] = {}
        self._control_rngs: Dict[Tuple[int, int], random.Random] = {}
        self._fifo_clock: Dict[Tuple[int, int], float] = {}
        # Messages whose first copy already landed: later copies are
        # duplicate deliveries.
        self._received: set[int] = set()
        self.stats = NetworkStats()

    def _link_rng(self, label: str, sender: int, receiver: int) -> random.Random:
        digest = hashlib.sha256(
            f"{self._stream}:{label}:{sender}:{receiver}".encode("utf-8")
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _open_link(self, sender: int, receiver: int) -> Tuple[LinkState, random.Random]:
        link = self._links[sender, receiver] = (
            self._channel.initial_state(),
            self._link_rng("app", sender, receiver),
        )
        return link

    def app_delivery_times(self, sender: int, receiver: int, now: float) -> List[float]:
        """The fate of an application message sent at ``now``.

        One delivery instant per copy that reaches the receiver: none when
        an active partition blocks the link or the channel loses the
        message, several when it duplicates it.
        """
        self.stats.app_sent += 1
        if self._partitions is not None and self._partitions.separated(sender, receiver, now):
            self.stats.app_blocked_by_partition += 1
            return []
        link = (sender, receiver)
        state, rng = self._links.get(link) or self._open_link(sender, receiver)
        latencies = self._channel.sample(state, sender, receiver, rng)
        if not latencies:
            self.stats.app_dropped += 1
            return []
        times = [now + latency for latency in latencies]
        if self._fifo:
            # FIFO discipline: a copy never overtakes an earlier copy on the
            # same link; equal times fall back to the backend's scheduling-
            # order tiebreak, which is send order.
            clock = self._fifo_clock.get(link, 0.0)
            for index, time in enumerate(times):
                times[index] = clock = max(time, clock)
            self._fifo_clock[link] = clock
        return times

    def control_latency(self, sender: int, receiver: int) -> float:
        """The latency of a control message, from the link's control stream."""
        link = (sender, receiver)
        rng = self._control_rngs.get(link)
        if rng is None:
            rng = self._control_rngs[link] = self._link_rng("control", sender, receiver)
        state, _ = self._links.get(link) or self._open_link(sender, receiver)
        return self._channel.sample_latency(state, sender, receiver, rng)

    def is_first_copy(self, message_id: int) -> bool:
        """Classify (and count) an arriving copy: fresh message or duplicate."""
        if message_id in self._received:
            self.stats.app_duplicates_delivered += 1
            return False
        self._received.add(message_id)
        self.stats.app_delivered += 1
        return True

    def close(self) -> None:
        """Drop every link's streams and state, the FIFO clocks and the
        received set: the run is over (the stats stay)."""
        self._links.clear()
        self._control_rngs.clear()
        self._fifo_clock.clear()
        self._received.clear()


class Network(Transport):
    """The simulator's :class:`Transport`: one in-process network for all nodes.

    :class:`LinkFates` decides every message's fate; what is left here is
    scheduling the surviving copies on the engine, their custody while in
    flight, and the :class:`ScheduleController` hand-off.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self._engine = engine
        config = config if config is not None else NetworkConfig()
        self._fates = LinkFates(engine.seed, config)
        self.stats = self._fates.stats
        self._app_handler: Optional[Callable[[AppMessage], None]] = None
        self._duplicate_handler: Optional[Callable[[AppMessage], None]] = None
        self._control_handler: Optional[Callable[[int, int, Any], None]] = None
        self._partition_hook: Optional[Callable[[PartitionEvent], None]] = None
        self._controller: Optional[ScheduleController] = None
        self._next_message_id = 0
        self._next_delivery_id = 0
        # In-transit copies keyed by a per-copy delivery id (a duplicated
        # message has several copies in flight at once).
        self._in_flight: Dict[int, AppMessage] = {}
        for time, kind, partition in config.partitions.transitions():
            engine.schedule_at(
                time,
                lambda kind=kind, partition=partition: self._partition_transition(
                    kind, partition.groups
                ),
            )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def on_app_delivery(self, handler: Callable[[AppMessage], None]) -> None:
        """Register the callback invoked when an application message is delivered."""
        self._app_handler = handler

    def on_duplicate_delivery(self, handler: Callable[[AppMessage], None]) -> None:
        """Register the callback for duplicate copies of already-delivered messages."""
        self._duplicate_handler = handler

    def on_control_delivery(self, handler: Callable[[int, int, Any], None]) -> None:
        """Register the callback for control messages: ``handler(sender, receiver, payload)``."""
        self._control_handler = handler

    def on_partition_event(self, handler: Callable[[PartitionEvent], None]) -> None:
        """Register the callback invoked at every partition cut/heal instant."""
        self._partition_hook = handler

    def attach_controller(self, controller: ScheduleController) -> None:
        """Hand delivery *ordering* to an external :class:`ScheduleController`.

        Must be attached before the first application send; copies already
        scheduled on the engine are not re-parented.  Channel fate sampling
        (loss, duplication, latency draws) is unchanged — see
        :class:`ScheduleController`.
        """
        if self._controller is not None:
            raise RuntimeError("a schedule controller is already attached")
        self._controller = controller

    # ------------------------------------------------------------------
    # Clock and timers
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The engine's virtual time."""
        return self._engine.now

    def schedule_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the engine ``delay`` time units from now."""
        self._engine.schedule_after(delay, callback)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def _partition_transition(self, kind: str, groups: Tuple[Tuple[int, ...], ...]) -> None:
        self.stats.partition_events += 1
        if self._partition_hook is not None:
            self._partition_hook((self._engine.now, kind, groups))

    # ------------------------------------------------------------------
    # Application messages
    # ------------------------------------------------------------------
    def send_app_message(
        self, sender: int, receiver: int, piggyback: Tuple[int, ...]
    ) -> AppMessage:
        """Send an application message; returns the in-transit record."""
        message = AppMessage(self._next_message_id, sender, receiver, piggyback)
        self._next_message_id += 1
        for delivery_time in self._fates.app_delivery_times(
            sender, receiver, self._engine.now
        ):
            delivery_id = self._next_delivery_id
            self._next_delivery_id += 1
            self._in_flight[delivery_id] = message
            if self._controller is not None:
                self._controller.on_copy_in_flight(delivery_id, message, delivery_time)
            else:
                self._engine.schedule_at(
                    delivery_time, partial(self._deliver_copy, delivery_id)
                )
        return message

    def release_delivery(self, delivery_id: int) -> None:
        """Deliver a controller-held copy *now* (current engine time).

        Only meaningful with a :class:`ScheduleController` attached; a copy
        discarded by a recovery session in the meantime is silently ignored,
        mirroring the engine-scheduled path.
        """
        if self._controller is None:
            raise RuntimeError("release_delivery requires an attached schedule controller")
        self._deliver_copy(delivery_id)

    def _deliver_copy(self, delivery_id: int) -> None:
        message = self._in_flight.pop(delivery_id, None)
        if message is None:
            return  # discarded by a recovery session while in transit
        if self._fates.is_first_copy(message.message_id):
            if self._app_handler is None:
                raise RuntimeError("no application delivery handler registered")
            self._app_handler(message)
        else:
            if self._duplicate_handler is None:
                raise RuntimeError("no duplicate delivery handler registered")
            self._duplicate_handler(message)

    def close(self) -> None:
        """Let go of the run: in-flight copies, handlers and link state."""
        self._in_flight.clear()
        self._app_handler = self._duplicate_handler = self._control_handler = None
        self._partition_hook = None
        self._fates.close()

    def in_flight_count(self) -> int:
        """Number of application message copies currently in transit."""
        return len(self._in_flight)

    def drop_in_flight(self) -> int:
        """Discard every in-transit application copy (recovery sessions)."""
        discarded = len(self._in_flight)
        self.stats.app_discarded_by_recovery += discarded
        dropped_ids = sorted(self._in_flight)
        self._in_flight.clear()
        if self._controller is not None and dropped_ids:
            self._controller.on_copies_discarded(dropped_ids)
        return discarded

    def drop_in_flight_for(self, pid: int) -> int:
        """Discard in-transit application copies sent by or addressed to ``pid``.

        Called when ``pid`` leaves the membership: its outbound messages must
        not land on the surviving computation and its inbound messages have no
        recipient.  Copies between surviving processes stay in flight, unlike
        :meth:`drop_in_flight`; controller-held copies are reclaimed the same
        way.
        """
        dropped_ids = sorted(
            delivery_id
            for delivery_id, message in self._in_flight.items()
            if message.sender == pid or message.receiver == pid
        )
        for delivery_id in dropped_ids:
            del self._in_flight[delivery_id]
        self.stats.app_discarded_by_departure += len(dropped_ids)
        if self._controller is not None and dropped_ids:
            self._controller.on_copies_discarded(dropped_ids)
        return len(dropped_ids)

    # ------------------------------------------------------------------
    # Control messages
    # ------------------------------------------------------------------
    def send_control_message(self, sender: int, receiver: int, payload: Any) -> None:
        """Send a reliable control message (never dropped, duplicated or
        blocked by partitions; latency follows the link's channel model)."""
        self.stats.control_sent += 1

        def deliver() -> None:
            self.stats.control_delivered += 1
            if self._control_handler is None:
                raise RuntimeError("no control delivery handler registered")
            self._control_handler(sender, receiver, payload)

        self._engine.schedule_after(
            self._fates.control_latency(sender, receiver), deliver
        )
