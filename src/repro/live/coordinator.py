"""The live run coordinator: rendezvous, failure injection, shard merge.

:func:`run_live` executes one :class:`~repro.simulation.runner.SimulationConfig`
on real OS processes:

1. **Rendezvous** — a TCP server on an ephemeral localhost port; one worker
   subprocess per logical process connects, reports its UDP data-plane
   port, receives the full run configuration (including its slice of the
   workload's action script, generated here from the config seed exactly
   like the simulation runner generates it) and the complete peer address
   map, and blocks on the start barrier.
2. **Failure injection** — the config's
   :class:`~repro.simulation.failures.FailureSchedule` maps to wall time
   through the time scale; at each crash instant the target worker is
   SIGKILLed mid-flight.  The coordinator then plays the paper's
   centralized recovery manager (Section 2.4) *for real*: it pauses the
   survivors, reconstructs the recorded execution by merging every shard
   written so far, computes the recovery line from its knowledge view with
   the very same :class:`~repro.recovery.manager.RecoveryManager` the
   simulator uses, pushes rollback directives to every survivor and awaits
   their acknowledgements together,
   respawns the crashed process with its stable storage restored from the
   session's replayed pattern (its checkpoints up to the recovery line,
   minus those its shards record as eliminated), and resumes the system
   in a new epoch.
3. **Merge** — after the stop barrier, every incarnation's shard is merged
   into a single v2 traceio artifact (:mod:`repro.live.merge`) with the
   recovery plans applied at their epoch boundaries, so ``traceio verify``,
   ``traceio inspect``, replay and the Theorem-4 oracles consume live runs
   exactly like simulated ones.

Counter semantics: event counters (sends, deliveries, duplicates,
checkpoints) and the storage counts (stored = basic + forced checkpoints,
collected = the shards' ``e`` records) are derived from the shards and are
exact even across SIGKILLs; environment counters that only lived in a
killed process's memory (its sampled message losses, control sends) are
summed from the surviving incarnations' final reports — the one place live
metrics are approximate where simulated ones are exact.
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.optimality import audit_garbage_collection
from repro.recovery.manager import RecoveryManager
from repro.recovery.rollback_plan import RollbackPlan
from repro.simulation.runner import (
    AuditRecord,
    RecoveryRecord,
    SimulationConfig,
    SimulationResult,
)
from repro.traceio.format import RunProvenance, TraceTruncatedError, make_header
from repro.traceio.writer import TraceWriter

from repro.live.frames import read_frame, send_frame
from repro.live.merge import ordered_entries, replay_entries, restore_spec, shard_counters
from repro.live.shard import read_shard


#: Wall seconds of slack after the nominal duration before the stop
#: barrier (lets final in-flight datagrams land).
GRACE_S = 0.25
#: Handshake timeout (wall seconds) for every worker reply.
HANDSHAKE_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class LiveOptions:
    """Knobs of the live execution environment (not of the experiment)."""

    #: Wall seconds per simulated time unit.  The default keeps channel
    #: latencies (~1 simulated unit) well above loopback jitter while a
    #: duration-30 run still finishes in under a second of active time.
    time_scale: float = 0.02


@dataclass
class LiveRunResult:
    """Everything :func:`run_live` produces."""

    result: SimulationResult
    trace_path: str
    shard_paths: List[str] = field(default_factory=list)


class _Worker:
    """Coordinator-side handle of one worker process (one incarnation)."""

    def __init__(
        self,
        pid: int,
        proc: "asyncio.subprocess.Process",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        udp_port: int,
        incarnation: int,
    ) -> None:
        self.pid = pid
        self.proc = proc
        self.reader = reader
        self.writer = writer
        self.udp_port = udp_port
        self.incarnation = incarnation

    async def send(self, frame: Dict[str, Any]) -> None:
        send_frame(self.writer, frame)
        await self.writer.drain()

    async def expect(self, kind: str, timeout: float) -> Dict[str, Any]:
        frame = await asyncio.wait_for(read_frame(self.reader), timeout)
        if frame is None or frame.get("type") != kind:
            raise RuntimeError(
                f"worker {self.pid}: expected {kind!r} frame, got "
                f"{None if frame is None else frame.get('type')!r}"
            )
        return frame


class LiveCoordinator:
    """One live execution of one configuration."""

    def __init__(
        self,
        config: SimulationConfig,
        options: LiveOptions,
        trace_path: str,
        shard_dir: str,
    ) -> None:
        if config.num_processes < 2:
            raise ValueError("a live run needs at least two processes")
        self._config = config
        self._options = options
        self._trace_path = trace_path
        self._shard_dir = shard_dir
        self._workers: Dict[int, _Worker] = {}
        self._incarnations: Dict[int, int] = {}
        self._shard_paths: List[str] = []
        self._plans: Dict[int, RollbackPlan] = {}
        self._recoveries: List[RecoveryRecord] = []
        self._epoch = 0
        self._origin = 0.0
        self._pause_accumulated = 0.0
        self._hello_queue: (
            "asyncio.Queue[Tuple[asyncio.StreamReader, asyncio.StreamWriter, Dict[str, Any]]]"
        ) = asyncio.Queue()
        self._server: Optional[asyncio.AbstractServer] = None
        self._actions_by_pid: Dict[int, List[List[Any]]] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    async def run(self) -> LiveRunResult:
        """Execute the configured run; always reaps the worker processes."""
        loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, "127.0.0.1", 0
        )
        port = self._server.sockets[0].getsockname()[1]
        self._generate_actions()
        try:
            await self._spawn_all(port)
            await self._init_all()
            self._origin = loop.time()
            await self._broadcast({"type": "go", "at_virtual_time": 0.0})
            await self._drive_failures(port)
            reports = await self._stop_all()
            return self._merge(reports)
        finally:
            self._server.close()
            for worker in self._workers.values():
                if worker.proc.returncode is None:
                    worker.proc.kill()
            await asyncio.gather(
                *(w.proc.wait() for w in self._workers.values()),
                return_exceptions=True,
            )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _generate_actions(self) -> None:
        import random

        config = self._config
        by_pid: Dict[int, List[List[Any]]] = {
            pid: [] for pid in range(config.num_processes)
        }
        # A worker's frame is [time, kind, target or None], straight from the key.
        for time, pid, kind, target in config.workload.keys(
            config.num_processes, config.duration, random.Random(config.seed)
        ):
            by_pid[pid].append([time, kind, None if target < 0 else target])
        self._actions_by_pid = by_pid

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frame = await read_frame(reader)
        if frame is None or frame.get("type") != "hello":
            writer.close()
            return
        await self._hello_queue.put((reader, writer, frame))

    def _shard_path(self, pid: int, incarnation: int) -> str:
        return os.path.join(
            self._shard_dir, f"worker-{pid}-i{incarnation}.shard.jsonl"
        )

    async def _spawn_one(self, port: int, pid: int, incarnation: int) -> _Worker:
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.live.worker",
            "--port",
            str(port),
            "--pid",
            str(pid),
            env=env,
        )
        reader, writer, hello = await asyncio.wait_for(
            self._hello_queue.get(), HANDSHAKE_TIMEOUT_S
        )
        if int(hello["pid"]) != pid:
            raise RuntimeError(
                f"rendezvous expected worker {pid}, got {hello['pid']}"
            )
        worker = _Worker(
            pid, proc, reader, writer, int(hello["udp_port"]), incarnation
        )
        self._workers[pid] = worker
        self._incarnations[pid] = incarnation
        self._shard_paths.append(self._shard_path(pid, incarnation))
        return worker

    async def _spawn_all(self, port: int) -> None:
        # Spawned sequentially so hello frames map to pids unambiguously
        # even though hellos arrive on a shared queue.
        for pid in range(self._config.num_processes):
            await self._spawn_one(port, pid, incarnation=0)

    def _peer_map(self) -> Dict[str, int]:
        return {str(pid): worker.udp_port for pid, worker in self._workers.items()}

    def _init_frame(
        self,
        pid: int,
        *,
        lamport_floor: int = 0,
        restore: Optional[Dict[str, Any]] = None,
        crashed_at: Optional[float] = None,
    ) -> Dict[str, Any]:
        config = self._config
        actions = self._actions_by_pid.get(pid, [])
        if crashed_at is not None:
            actions = [action for action in actions if action[0] > crashed_at]
        return {
            "type": "init",
            "num_processes": config.num_processes,
            "seed": config.seed,
            "protocol": config.protocol,
            "collector": config.collector,
            "collector_options": dict(config.collector_options),
            "network": config.network.describe(),
            "time_scale": self._options.time_scale,
            "duration": config.duration,
            "actions": actions,
            "shard_path": self._shard_path(pid, self._incarnations[pid]),
            "epoch": self._epoch,
            "incarnation": self._incarnations[pid],
            "lamport_floor": lamport_floor,
            "peers": self._peer_map(),
            "restore": restore,
        }

    async def _init_all(self) -> None:
        for pid, worker in sorted(self._workers.items()):
            await worker.send(self._init_frame(pid))
        await asyncio.gather(
            *(
                worker.expect("ready", HANDSHAKE_TIMEOUT_S)
                for worker in self._workers.values()
            )
        )

    async def _broadcast(self, frame: Dict[str, Any]) -> None:
        for worker in self._workers.values():
            await worker.send(frame)

    # ------------------------------------------------------------------
    # Virtual time (coordinator view)
    # ------------------------------------------------------------------
    def _vnow(self) -> float:
        loop = asyncio.get_running_loop()
        return (
            loop.time() - self._origin - self._pause_accumulated
        ) / self._options.time_scale

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    async def _drive_failures(self, port: int) -> None:
        crashes = sorted(self._config.failures, key=lambda crash: crash.time)
        for crash in crashes:
            if crash.time >= self._config.duration:
                continue
            delay = (crash.time - self._vnow()) * self._options.time_scale
            if delay > 0:
                await asyncio.sleep(delay)
            await self._crash_and_recover(port, crash.pid, crash.time)
        remaining = (
            self._config.duration - self._vnow()
        ) * self._options.time_scale + GRACE_S
        if remaining > 0:
            await asyncio.sleep(remaining)

    async def _crash_and_recover(
        self, port: int, pid: int, crash_time: float
    ) -> None:
        loop = asyncio.get_running_loop()
        options = self._options
        victim = self._workers[pid]
        victim.proc.kill()
        await victim.proc.wait()
        victim.writer.close()
        pause_started = loop.time()
        vtime = (pause_started - self._origin - self._pause_accumulated) / options.time_scale

        survivors = [w for p, w in sorted(self._workers.items()) if p != pid]
        for worker in survivors:
            await worker.send({"type": "pause"})
        paused = await asyncio.gather(
            *(w.expect("paused", HANDSHAKE_TIMEOUT_S) for w in survivors)
        )

        # Reconstruct the recorded execution from the durable shards: the
        # recovery line is computed on its knowledge view, and the crashed
        # process's respawn restores its stable storage from its pattern.
        shards = [read_shard(path) for path in self._shard_paths]
        eliminated: List[Set[int]] = [set() for _ in range(self._config.num_processes)]
        recorder = replay_entries(
            ordered_entries(shards),
            self._config.num_processes,
            plans=self._plans,
            eliminated=eliminated,
        )
        view = recorder.knowledge_view()
        plan = RecoveryManager().plan(view, [pid])

        # Every directive goes out first, then the acks are awaited together:
        # a stalled survivor costs one timeout, not one per survivor.
        interval = list(plan.last_interval_vector)
        for worker in survivors:
            directive = plan.rollback_for(worker.pid)
            if directive is not None:
                await worker.send(
                    {
                        "type": "rollback",
                        "rollback_index": directive.rollback_index,
                        "last_interval_vector": interval,
                    }
                )
            else:
                await worker.send({"type": "peer_rollback", "last_interval_vector": interval})
        acks = await asyncio.gather(
            *(
                w.expect(
                    "rolled_back" if plan.must_roll_back(w.pid) else "peer_rolled_back",
                    HANDSHAKE_TIMEOUT_S,
                )
                for w in survivors
            )
        )
        collected = sum(int(ack["collected"]) for ack in acks)

        directive = plan.rollback_for(pid)
        if directive is None:  # pragma: no cover - the faulty process always rolls back
            raise RuntimeError(f"recovery plan has no rollback for faulty process {pid}")
        restore = restore_spec(
            recorder.ccp(), eliminated, pid, directive.rollback_index, plan.last_interval_vector
        )
        lamport_floor = 1 + max(
            [entry.lamport for shard in shards for entry in shard.entries]
            + [int(r["lamport"]) for r in paused],
            default=0,
        )

        self._plans[self._epoch] = plan
        self._epoch += 1
        self._incarnations[pid] += 1

        respawned = await self._spawn_one(port, pid, self._incarnations[pid])
        await respawned.send(
            self._init_frame(
                pid, lamport_floor=lamport_floor, restore=restore, crashed_at=crash_time
            )
        )
        ready = await respawned.expect("ready", HANDSHAKE_TIMEOUT_S)
        # The respawn's restore eliminations belong to the session too.
        collected += int(ready.get("collected", 0))
        self._recoveries.append(
            RecoveryRecord.of(
                plan, view.checkpoints_taken, time=crash_time, collected=collected
            )
        )

        peers = self._peer_map()
        for worker in survivors:
            await worker.send(
                {
                    "type": "resume",
                    "epoch": self._epoch,
                    "peers": peers,
                    "lamport_floor": lamport_floor,
                    "at_virtual_time": vtime,
                }
            )
        await respawned.send(
            {"type": "go", "at_virtual_time": vtime, "restored": True}
        )
        self._pause_accumulated += loop.time() - pause_started

    # ------------------------------------------------------------------
    # Shutdown and merge
    # ------------------------------------------------------------------
    async def _stop_all(self) -> Dict[int, Dict[str, Any]]:
        await self._broadcast({"type": "stop"})
        finals = await asyncio.gather(
            *(
                worker.expect("final", HANDSHAKE_TIMEOUT_S)
                for worker in self._workers.values()
            )
        )
        await asyncio.gather(
            *(worker.proc.wait() for worker in self._workers.values())
        )
        return {int(report["pid"]): report for report in finals}

    def _merge(self, reports: Dict[int, Dict[str, Any]]) -> LiveRunResult:
        config = self._config
        n = config.num_processes
        shards = [read_shard(path) for path in self._shard_paths]
        for shard in shards:
            # A SIGKILLed incarnation's shard has no footer; a current one,
            # whose worker reported its clean stop, must have it.
            if not shard.complete and shard.incarnation == self._incarnations.get(shard.pid):
                last = shard.entries[-1].line if shard.entries else 1
                raise TraceTruncatedError(
                    f"{shard.path}:{last}: no shard footer after this line, yet "
                    f"worker {shard.pid} reported a clean stop"
                )
        live_fields: Dict[str, Any] = {
            "time_scale": self._options.time_scale,
            "processes": n,
            "epochs": self._epoch + 1,
            "incarnations": [self._incarnations[pid] + 1 for pid in range(n)],
            "retained": [list(reports[pid]["retained_indices"]) for pid in range(n)],
        }
        if config.trace_meta:
            # Campaign (or other driver) provenance wins the meta shape; the
            # live parameters ride along under a key from_meta ignores.
            meta = dict(config.trace_meta)
            meta["live_backend"] = live_fields
        else:
            meta = RunProvenance.live_run(**live_fields).to_meta()
        writer = TraceWriter(self._trace_path, header=make_header(config, meta=meta))
        try:
            recorder = replay_entries(
                ordered_entries(shards), n, plans=self._plans, sink=writer
            )
            result = self._build_result(recorder, reports, shard_counters(shards))
            writer.finalize(
                result,
                final_volatile_dvs=[list(reports[pid]["dv"]) for pid in range(n)],
            )
        except BaseException as exc:
            if not writer.closed:
                writer.abort(f"{type(exc).__name__}: {exc}")
            raise
        return LiveRunResult(
            result=result,
            trace_path=self._trace_path,
            shard_paths=list(self._shard_paths),
        )

    def _build_result(
        self,
        recorder: Any,
        reports: Dict[int, Dict[str, Any]],
        counters: Dict[str, int],
    ) -> SimulationResult:
        config = self._config
        n = config.num_processes
        audits: List[AuditRecord] = []
        if config.audit != "off":
            retained = {
                pid: [int(i) for i in reports[pid]["retained_indices"]]
                for pid in range(n)
            }
            audit = audit_garbage_collection(
                recorder.knowledge_view(), retained, require_optimality=config.audit == "full"
            )
            audits.append(AuditRecord.of(audit, time=config.duration, label="final"))

        def summed(key: str) -> int:
            return sum(int(reports[pid]["stats"][key]) for pid in range(n))

        return SimulationResult(
            config=config,
            protocol=config.protocol,
            collector=config.collector,
            duration=config.duration,
            basic_checkpoints=counters["basic_checkpoints"],
            forced_checkpoints=counters["forced_checkpoints"],
            messages_sent=counters["sent"],
            messages_delivered=counters["delivered"],
            messages_dropped=summed("app_dropped"),
            messages_duplicated=counters["duplicates"],
            messages_blocked_by_partition=summed("app_blocked_by_partition"),
            control_messages=summed("control_sent"),
            total_collected=counters["eliminated"],
            retained_final=tuple(
                len(reports[pid]["retained_indices"]) for pid in range(n)
            ),
            max_retained_per_process=tuple(
                int(reports[pid]["max_retained"]) for pid in range(n)
            ),
            samples=[],
            recoveries=list(self._recoveries),
            audits=audits,
        )


def run_live(
    config: SimulationConfig, options: Optional[LiveOptions] = None
) -> LiveRunResult:
    """Run ``config`` on the live backend (blocking; own asyncio loop).

    The merged artifact goes to ``config.trace_path`` when set, otherwise to
    a fresh temporary directory (the returned :class:`LiveRunResult` names
    it); shards go to ``<trace_path>.shards/``.  A failed UDP/TCP bind is
    retried once with a fresh ephemeral port before giving up — CI runners
    occasionally race on the loopback port space.
    """
    options = options or LiveOptions()
    trace_path = config.trace_path
    if trace_path is None:
        trace_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-live-"), "live.trace.jsonl"
        )
    shard_dir = trace_path + ".shards"
    os.makedirs(shard_dir, exist_ok=True)
    attempts = 0
    while True:
        coordinator = LiveCoordinator(config, options, trace_path, shard_dir)
        try:
            return asyncio.run(coordinator.run())
        except OSError:
            attempts += 1
            if attempts > 1:
                raise
