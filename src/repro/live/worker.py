"""One live process of the checkpointed application.

``python -m repro.live.worker --port P --pid K`` connects to the
coordinator's TCP rendezvous on localhost port ``P``, binds an ephemeral
UDP endpoint, and then runs the *same* middleware stack the simulator runs
— :class:`repro.simulation.node.SimulationNode` with a real protocol,
collector and stable storage — on a :class:`repro.live.transport.LiveTransport`.

Coordinator protocol (length-prefixed JSON frames, see
:mod:`repro.live.frames`):

==============  =========================================================
frame           meaning
==============  =========================================================
→ ``hello``     ``{pid, udp_port}`` — the worker's data-plane address
← ``init``      full run configuration: processes, seed, protocol,
                collector (+options), network description, time scale,
                per-pid action script, shard path, epoch/incarnation,
                peer address map, and — for a respawned worker — the
                ``restore`` object (stable-storage contents + rollback
                directive reconstructed by the coordinator)
→ ``ready``     node built (and restored, when applicable)
← ``go``        start barrier; carries the virtual time to anchor at
← ``pause``     freeze (a recovery session is starting)
→ ``paused``    ``{dv, lamport}`` — volatile state for the CCP snapshot
← ``rollback``  apply a rollback directive (this process is rolled back)
← ``peer_rollback``  recovery session in which this process keeps state
→ ``rolled_back`` / ``peer_rolled_back``  ack, with collected counts
← ``resume``    re-enter execution: new epoch, refreshed peers, clock
← ``stop``      end of run
→ ``final``     closing report: dv, storage occupancy, transport stats
==============  =========================================================

A worker can be SIGKILLed at any instant; its shard stays a readable
prefix (each record is handed to the OS as it happens) and the coordinator
reconstructs its storage from it — that asymmetry (durable shard, volatile
everything else) is the paper's crash model made physical.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import time as wall_time
from typing import Any, Dict, List, Optional, Tuple

from repro.simulation.network import network_config_from_mapping
from repro.simulation.node import SimulationNode, build_node
from repro.simulation.workloads import Action, ActionKind

from repro.live.frames import read_frame, send_frame
from repro.live.shard import ShardWriter
from repro.live.transport import LiveTransport


class _Endpoint(asyncio.DatagramProtocol):
    """Feeds received datagrams into the transport (single loop, no locks)."""

    def __init__(self, worker: "LiveWorker") -> None:
        self._worker = worker

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        transport = self._worker.transport
        if transport is not None:
            transport.datagram_received(data)


class LiveWorker:
    """State of one worker process (built up across the rendezvous frames)."""

    def __init__(self, pid: int, coordinator_port: int) -> None:
        self.pid = pid
        self.coordinator_port = coordinator_port
        self.transport: Optional[LiveTransport] = None
        self.node: Optional[SimulationNode] = None
        self.shard: Optional[ShardWriter] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._udp: Optional[asyncio.DatagramTransport] = None
        self._scheduler: Optional[asyncio.Task[None]] = None
        self._restore_collected = 0
        self._duration = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Connect, rendezvous, execute until ``stop``."""
        loop = asyncio.get_running_loop()
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", self.coordinator_port
        )
        self._udp, _ = await loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=("127.0.0.1", 0)
        )
        udp_port = self._udp.get_extra_info("sockname")[1]
        send_frame(self._writer, {"type": "hello", "pid": self.pid, "udp_port": udp_port})
        await self._writer.drain()
        try:
            await self._frame_loop()
        finally:
            if self.shard is not None:
                self.shard.close()
            if self._scheduler is not None:
                self._scheduler.cancel()
            if self._udp is not None:
                self._udp.close()
            self._writer.close()

    async def _frame_loop(self) -> None:
        assert self._reader is not None and self._writer is not None
        while True:
            frame = await read_frame(self._reader)
            if frame is None:
                return  # coordinator is gone; nothing sensible left to do
            kind = frame.get("type")
            if kind == "init":
                self._handle_init(frame)
                send_frame(
                    self._writer,
                    {"type": "ready", "pid": self.pid, "collected": self._restore_collected},
                )
            elif kind == "go":
                self._handle_go(frame)
            elif kind == "pause":
                self._handle_pause()
            elif kind == "rollback":
                self._handle_rollback(frame)
            elif kind == "peer_rollback":
                self._handle_peer_rollback(frame)
            elif kind == "resume":
                self._handle_resume(frame)
            elif kind == "stop":
                self._handle_stop()
                return
            else:
                raise ValueError(f"worker {self.pid}: unknown frame {kind!r}")
            await self._writer.drain()

    # ------------------------------------------------------------------
    # Frame handlers
    # ------------------------------------------------------------------
    def _handle_init(self, frame: Dict[str, Any]) -> None:
        num_processes = int(frame["num_processes"])
        seed = int(frame["seed"])
        epoch = int(frame["epoch"])
        incarnation = int(frame["incarnation"])
        self._duration = float(frame["duration"])
        network = network_config_from_mapping(dict(frame["network"]))
        self.shard = ShardWriter(
            str(frame["shard_path"]),
            pid=self.pid,
            num_processes=num_processes,
            epoch=epoch,
            incarnation=incarnation,
            lamport=int(frame.get("lamport_floor", 0)),
        )
        self.transport = LiveTransport(
            seed=seed,
            network=network,
            time_scale=float(frame["time_scale"]),
            shard=self.shard,
            incarnation=incarnation,
            epoch=epoch,
            clock=wall_time.monotonic,
        )
        assert self._udp is not None
        self.transport.attach_endpoint(self._udp)
        self.transport.set_peers(
            {int(pid): ("127.0.0.1", int(port)) for pid, port in frame["peers"].items()}
        )
        node = self.node = build_node(
            self.pid,
            num_processes,
            protocol=str(frame["protocol"]),
            collector=str(frame["collector"]),
            collector_options=frame.get("collector_options", {}),
            transport=self.transport,
            trace=self.shard,
        )
        storage = node.storage
        restore = frame.get("restore")
        if restore is not None:
            # Reload the stable storage exactly as the coordinator
            # reconstructed it from this process's shard (stores must be
            # sequential; eliminated holes are re-punched afterwards).
            for index, dv, forced, ckpt_time in restore["stores"]:
                storage.store(
                    int(index),
                    tuple(int(v) for v in dv),
                    forced=bool(forced),
                    time=float(ckpt_time),
                )
        shard = self.shard
        node.collector.attach_elimination_listener(
            lambda index: shard.record_elimination(self.pid, index)
        )
        self.transport.on_app_delivery(node.deliver)
        self.transport.on_duplicate_delivery(node.deliver_duplicate)
        transport = self.transport
        self.transport.on_control_delivery(
            lambda sender, payload: node.collector.on_control_message(
                sender, payload, transport.now()
            )
        )
        if restore is not None:
            for index in restore.get("eliminated", ()):
                storage.eliminate(int(index))
            collected = node.apply_rollback(
                int(restore["rollback_index"]),
                [int(v) for v in restore["last_interval_vector"]],
            )
            self._restore_collected = len(collected)
        self._schedule_actions(frame.get("actions", ()))

    def _schedule_actions(self, actions: Any) -> None:
        assert self.transport is not None and self.node is not None
        for raw_time, raw_kind, raw_target in actions:
            action = Action(
                time=float(raw_time),
                pid=self.pid,
                kind=ActionKind(raw_kind),
                target=None if raw_target is None else int(raw_target),
            )
            self.transport.schedule_at(action.time, self.node.action_handler(action))

    def _handle_go(self, frame: Dict[str, Any]) -> None:
        assert self.transport is not None and self.node is not None
        self.transport.start_clock(float(frame.get("at_virtual_time", 0.0)))
        if not frame.get("restored", False):
            self.node.start()  # the model's initial stable checkpoint s_i^0
        self._scheduler = asyncio.get_running_loop().create_task(
            self.transport.run_scheduler()
        )

    def _handle_pause(self) -> None:
        assert self.transport is not None and self.node is not None and self.shard is not None
        assert self._writer is not None
        self.transport.pause()
        send_frame(
            self._writer,
            {
                "type": "paused",
                "pid": self.pid,
                "dv": list(self.node.current_dv),
                "lamport": self.shard.lamport,
            },
        )

    def _handle_rollback(self, frame: Dict[str, Any]) -> None:
        assert self.node is not None and self._writer is not None
        collected = self.node.apply_rollback(
            int(frame["rollback_index"]),
            [int(v) for v in frame["last_interval_vector"]],
        )
        send_frame(
            self._writer,
            {"type": "rolled_back", "pid": self.pid, "collected": len(collected)},
        )

    def _handle_peer_rollback(self, frame: Dict[str, Any]) -> None:
        assert self.node is not None and self._writer is not None
        collected = self.node.apply_peer_rollback(
            [int(v) for v in frame["last_interval_vector"]]
        )
        send_frame(
            self._writer,
            {"type": "peer_rolled_back", "pid": self.pid, "collected": len(collected)},
        )

    def _handle_resume(self, frame: Dict[str, Any]) -> None:
        assert self.transport is not None and self.shard is not None
        epoch = int(frame["epoch"])
        self.shard.set_epoch(epoch, lamport_floor=int(frame.get("lamport_floor", 0)))
        self.transport.set_peers(
            {int(pid): ("127.0.0.1", int(port)) for pid, port in frame["peers"].items()}
        )
        self.transport.resume(
            epoch=epoch, at_virtual_time=float(frame["at_virtual_time"])
        )

    def _handle_stop(self) -> None:
        assert self.transport is not None and self.node is not None
        assert self.shard is not None and self._writer is not None
        self.transport.stop()
        node = self.node
        send_frame(
            self._writer,
            {
                "type": "final",
                "pid": self.pid,
                "dv": list(node.current_dv),
                "lamport": self.shard.lamport,
                "retained_indices": node.storage.retained_indices(),
                "max_retained": node.storage.max_retained(),
                "total_stored": node.storage.total_stored(),
                "total_eliminated": node.storage.total_eliminated(),
                "basic_checkpoints": node.basic_checkpoints,
                "forced_checkpoints": node.forced_checkpoints,
                "stats": dataclasses.asdict(self.transport.stats),
            },
        )
        self.shard.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (spawned by the coordinator, runnable by hand)."""
    parser = argparse.ArgumentParser(description="repro live worker process")
    parser.add_argument("--port", type=int, required=True, help="coordinator TCP port")
    parser.add_argument("--pid", type=int, required=True, help="logical process id")
    args = parser.parse_args(argv)
    asyncio.run(LiveWorker(args.pid, args.port).run())
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(main())
