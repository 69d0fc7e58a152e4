"""The live backend's :class:`repro.transport.Transport`: UDP + virtual time.

One :class:`LiveTransport` runs inside each worker process and gives the
node exactly the contract :class:`repro.simulation.network.Network` gives it
in the simulator:

* ``now()`` — *virtual* time: scaled monotonic wall time since the
  coordinator's start barrier, frozen while the coordinator pauses the
  system for a recovery session.  One simulated time unit corresponds to
  ``time_scale`` wall seconds, so latencies, timer cadences and failure
  schedules keep the same units as the simulator.
* ``send_app_message`` — asks the simulator's
  :class:`~repro.simulation.network.LinkFates` for the message's fate (the
  delivery instant of every surviving copy: send instant + latency, after
  the partition gate and the FIFO clamp), then injects it physically: a
  loss never transmits, a duplicate transmits extra copies, a copy's
  ``sendto`` happens at its delivery instant.  The datagram leaves the
  socket only after the node has durably recorded the send in its shard
  (:attr:`repro.live.shard.ShardWriter.after_send`), so a recorded receive
  always has a recorded send, even under SIGKILL.
* ``send_control_message`` — reliable, unfiltered and undelayed: a control
  message draws no latency here (the coordinated baselines assume reliable
  control exchanges; loopback UDP delivers them), payloads as tagged JSON
  (:mod:`repro.live.frames`); a datagram whose payload is not a
  collector's round message is refused on arrival.
* ``schedule_timer`` — entries on the transport's virtual-time heap,
  driven by a single asyncio task; everything in the worker runs on one
  loop, so no locking anywhere.

Recovery epochs: every datagram carries the sender's epoch; a receiver
drops datagrams from other epochs, and a resume discards in-custody delayed
copies of the old epoch — together the live analogue of the simulator's
``Network.drop_in_flight`` (messages in flight across a recovery session
are lost, per the paper's model).
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simulation.network import LinkFates, NetworkConfig
from repro.transport.base import AppMessage, Transport

from repro.live.frames import (
    ControlPayloadError,
    decode_datagram,
    encode_datagram,
    pack_payload,
    unpack_payload,
)
from repro.live.shard import ShardWriter

#: Message-id partitioning: ids are unique across senders and incarnations
#: without any coordination — ``sender`` and ``incarnation`` occupy disjoint
#: high decimal digits above a per-incarnation sequence counter.
_SENDER_STRIDE = 1_000_000_000
_INCARNATION_STRIDE = 1_000_000


class LiveTransport(Transport):
    """Datagram transport + virtual-time scheduler of one live worker."""

    def __init__(
        self,
        *,
        seed: int,
        network: NetworkConfig,
        time_scale: float,
        shard: ShardWriter,
        incarnation: int = 0,
        epoch: int = 0,
        clock: Callable[[], float],
    ) -> None:
        self._fates = LinkFates(seed, network, incarnation=incarnation)
        self.stats = self._fates.stats
        self._time_scale = time_scale
        self._shard = shard
        self._incarnation = incarnation
        self._epoch = epoch
        self._clock = clock
        self._origin: Optional[float] = None
        self._paused_at: Optional[float] = None
        self._next_seq = 0
        self._next_heap_seq = 0
        # (fire_vtime, seq, epoch-or-None, callback); epoch-tagged entries
        # are in-flight datagram copies, discarded on epoch change.
        self._heap: List[Tuple[float, int, Optional[int], Callable[[], None]]] = []
        self._wake = asyncio.Event()
        self._running = asyncio.Event()
        self._running.set()
        self._stopped = False
        # Sent but not yet recorded: message and its copies' delivery instants.
        self._pending_out: Dict[int, Tuple[AppMessage, List[float]]] = {}
        self._paused_control: List[Tuple[Dict[str, Any], Any]] = []
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._udp: Optional[asyncio.DatagramTransport] = None
        self._deliver: Optional[Callable[[AppMessage], None]] = None
        self._deliver_duplicate: Optional[Callable[[AppMessage], None]] = None
        self._deliver_control: Optional[Callable[[int, Any], None]] = None
        shard.after_send = self._transmit_recorded_send

    # ------------------------------------------------------------------
    # Wiring (worker setup)
    # ------------------------------------------------------------------
    def attach_endpoint(self, udp: asyncio.DatagramTransport) -> None:
        """Attach the bound UDP datagram transport."""
        self._udp = udp

    def set_peers(self, peers: Dict[int, Tuple[str, int]]) -> None:
        """Install (or refresh, after a recovery) the pid → address map."""
        self._peers = dict(peers)

    def on_app_delivery(self, handler: Callable[[AppMessage], None]) -> None:
        """Register the first-copy delivery callback (``node.deliver``)."""
        self._deliver = handler

    def on_duplicate_delivery(self, handler: Callable[[AppMessage], None]) -> None:
        """Register the duplicate-copy callback (``node.deliver_duplicate``)."""
        self._deliver_duplicate = handler

    def on_control_delivery(self, handler: Callable[[int, Any], None]) -> None:
        """Register the control-message callback ``handler(sender, payload)``."""
        self._deliver_control = handler

    # ------------------------------------------------------------------
    # Virtual time
    # ------------------------------------------------------------------
    def start_clock(self, at_virtual_time: float = 0.0) -> None:
        """Anchor virtual time: ``now()`` equals ``at_virtual_time`` here.

        Called at the coordinator's start barrier and again on every resume
        (the coordinator dictates the post-pause virtual time, so all
        workers' clocks stay aligned without measuring the pause locally).
        """
        self._origin = self._clock() - at_virtual_time * self._time_scale
        self._paused_at = None
        self._wake.set()

    def now(self) -> float:
        """Virtual time (simulated units); frozen while paused."""
        if self._origin is None:
            return 0.0
        reference = self._paused_at if self._paused_at is not None else self._clock()
        return (reference - self._origin) / self._time_scale

    @property
    def epoch(self) -> int:
        """The current recovery epoch."""
        return self._epoch

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    def send_app_message(
        self, sender: int, receiver: int, piggyback: Tuple[int, ...]
    ) -> AppMessage:
        """Decide the message's fate; transmission waits for the send record."""
        message = AppMessage(
            message_id=(
                sender * _SENDER_STRIDE
                + self._incarnation * _INCARNATION_STRIDE
                + self._next_seq
            ),
            sender=sender,
            receiver=receiver,
            piggyback=tuple(piggyback),
        )
        self._next_seq += 1
        self._pending_out[message.message_id] = (
            message,
            self._fates.app_delivery_times(sender, receiver, self.now()),
        )
        return message

    def _transmit_recorded_send(self, message_id: int) -> None:
        """The send record is durable: put the surviving copies in flight."""
        pending = self._pending_out.pop(message_id, None)
        if pending is None:
            return
        message, delivery_times = pending
        for delivery_time in delivery_times:
            self._push(
                delivery_time,
                lambda m=message: self._transmit(m),
                epoch=self._epoch,
            )

    def _transmit(self, message: AppMessage) -> None:
        address = self._peers.get(message.receiver)
        if self._udp is None or address is None:
            return
        self._udp.sendto(
            encode_datagram(
                {
                    "t": "app",
                    "m": message.message_id,
                    "s": message.sender,
                    "r": message.receiver,
                    "pb": list(message.piggyback),
                    "e": self._epoch,
                    "l": self._shard.lamport,
                }
            ),
            address,
        )

    def send_control_message(self, sender: int, receiver: int, payload: Any) -> None:
        """Reliable control datagram (never filtered, tagged JSON payload).

        One that cannot be encoded is refused before it is counted or sent.
        """
        data = encode_datagram(
            {
                "t": "ctrl",
                "s": sender,
                "p": pack_payload(payload),
                "e": self._epoch,
                "l": self._shard.lamport,
            }
        )
        self.stats.control_sent += 1
        address = self._peers.get(receiver)
        if self._udp is None or address is None:
            return
        self._udp.sendto(data, address)

    def schedule_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated units of *active* time."""
        self._push(self.now() + delay, callback, epoch=None)

    def schedule_at(self, vtime: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute virtual time ``vtime`` (workload actions)."""
        self._push(vtime, callback, epoch=None)

    # ------------------------------------------------------------------
    # Datagram ingress
    # ------------------------------------------------------------------
    def datagram_received(self, data: bytes) -> None:
        """Classify and deliver one incoming datagram (loop callback)."""
        if self._stopped:
            return
        try:
            frame = decode_datagram(data)
        except ValueError:
            return
        kind = frame.get("t")
        if kind == "ctrl":
            try:
                payload = unpack_payload(frame.get("p"))
            except ControlPayloadError:
                return  # not a round message any collector sends
            # Control exchanges are reliable and survive recovery sessions
            # (the simulator's drop_in_flight only touches app traffic), so
            # no epoch guard; while paused the frame is parked and delivered
            # on resume instead of being lost to the freeze.
            if self._paused_at is not None:
                self._paused_control.append((frame, payload))
                return
            self._deliver_ctrl(frame, payload)
            return
        if self._paused_at is not None:
            return  # the system is frozen for a recovery session
        if frame.get("e") != self._epoch:
            return  # in flight across a recovery session: lost by the model
        self._shard.merge_clock(int(frame.get("l", 0)))
        if kind != "app":
            return
        message = AppMessage(
            message_id=int(frame["m"]),
            sender=int(frame["s"]),
            receiver=int(frame["r"]),
            piggyback=tuple(int(v) for v in frame["pb"]),
        )
        handler = (
            self._deliver
            if self._fates.is_first_copy(message.message_id)
            else self._deliver_duplicate
        )
        if handler is not None:
            handler(message)

    # ------------------------------------------------------------------
    # Pause / resume (coordinator-driven recovery sessions)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Freeze virtual time and all scheduled work."""
        if self._paused_at is None:
            self._paused_at = self._clock()
        self._running.clear()

    def resume(self, *, epoch: int, at_virtual_time: float) -> None:
        """Enter ``epoch`` at the coordinator-dictated virtual time.

        Discards delayed datagram copies of older epochs — the sender-side
        half of ``drop_in_flight`` (the receiver-side half is the epoch
        guard on ingress).
        """
        discarded = [e for e in self._heap if e[2] is not None and e[2] != epoch]
        if discarded:
            self.stats.app_discarded_by_recovery += len(discarded)
            self._heap = [e for e in self._heap if not (e[2] is not None and e[2] != epoch)]
            heapq.heapify(self._heap)
        self._epoch = epoch
        self.start_clock(at_virtual_time)
        self._running.set()
        self._wake.set()
        parked, self._paused_control = self._paused_control, []
        for frame, payload in parked:
            self._deliver_ctrl(frame, payload)

    def _deliver_ctrl(self, frame: Dict[str, Any], payload: Any) -> None:
        self._shard.merge_clock(int(frame.get("l", 0)))
        self.stats.control_delivered += 1
        if self._deliver_control is not None:
            self._deliver_control(int(frame["s"]), payload)

    def stop(self) -> None:
        """Stop the scheduler task permanently."""
        self._stopped = True
        self._running.set()
        self._wake.set()

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _push(
        self, vtime: float, callback: Callable[[], None], *, epoch: Optional[int]
    ) -> None:
        heapq.heappush(self._heap, (vtime, self._next_heap_seq, epoch, callback))
        self._next_heap_seq += 1
        self._wake.set()

    def run_due(self) -> Optional[float]:
        """Fire every entry due by now; the next entry's virtual time, if any."""
        while self._heap:
            vtime, _, epoch, callback = self._heap[0]
            if vtime > self.now():
                return vtime
            heapq.heappop(self._heap)
            if epoch is None or epoch == self._epoch:
                callback()
        return None

    async def run_scheduler(self) -> None:
        """Drive the virtual-time heap until :meth:`stop` (one task per worker)."""
        while not self._stopped:
            await self._running.wait()
            if self._stopped:
                return
            next_due = self.run_due()
            if next_due is None:
                await self._wake.wait()
                self._wake.clear()
                continue
            try:
                await asyncio.wait_for(
                    self._wake.wait(),
                    timeout=(next_due - self.now()) * self._time_scale,
                )
                self._wake.clear()
            except asyncio.TimeoutError:
                pass
